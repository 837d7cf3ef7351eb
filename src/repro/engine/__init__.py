"""Checkpointable run engine: the one runner behind ``BatchER.run``.

:class:`RunEngine` runs the seven stock pipeline stage names with its own
``inference`` stage, which dispatches one LLM call per batch on the
configured executor and, given a checkpoint directory, appends every answer
to the run's JSONL checkpoint file — a killed run resumes with zero repeated
LLM calls and a ``RunResult`` byte-identical to an uninterrupted one.
:mod:`repro.engine.faults` provides the deterministic crash wrappers the
resume guarantees are tested with.
"""

from repro.engine.checkpoint import BatchRecord, CheckpointStore, CheckpointWriter, RunHeader
from repro.engine.engine import (
    CheckpointedInference,
    EngineReport,
    RunEngine,
    batch_fingerprint,
    config_fingerprint,
)
from repro.engine.faults import CrashingLLM, CrashingStore, InjectedFault

__all__ = [
    "BatchRecord",
    "CheckpointStore",
    "CheckpointWriter",
    "CheckpointedInference",
    "CrashingLLM",
    "CrashingStore",
    "EngineReport",
    "InjectedFault",
    "RunEngine",
    "RunHeader",
    "batch_fingerprint",
    "config_fingerprint",
]
