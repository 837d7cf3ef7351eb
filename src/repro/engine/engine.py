"""The checkpointable run engine: the one runner behind ``BatchER.run``.

A run is one :class:`~repro.pipeline.pipeline.Pipeline` of the seven stock
stage names.  The stock ``Featurize`` → ``BatchQuestions`` →
``SelectDemonstrations`` → ``RenderPrompts`` stages fix every batch prompt
without an LLM call; the engine's own ``inference`` stage
(:class:`CheckpointedInference`) answers them; the stock ``ParseAnswers`` and
``Evaluate`` stages turn the responses into a :class:`RunResult`.

The batch — one prompt, one paid LLM call — is the unit of dispatch and of
checkpointing.  Pending batches are dispatched one call each on the
configured executor, whose worker bound is therefore the number of in-flight
calls, and once a failed call has been recorded no further call starts.
With a checkpoint store, every answered batch is appended to the run's
checkpoint file, so a killed run resumes by replaying the recorded responses
with zero repeated LLM calls.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.batching.base import QuestionBatch
from repro.core.config import BatcherConfig
from repro.core.result import RunResult
from repro.data.fingerprint import pair_fingerprint
from repro.data.schema import Dataset
from repro.engine.checkpoint import BatchRecord, CheckpointStore, RunHeader
from repro.llm.base import LLMClient, LLMResponse, UsageTracker
from repro.llm.executors import ExecutionBackend, SerialExecutor
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline, StageHook
from repro.pipeline.stages import (
    DEFAULT_STAGES,
    BatchQuestions,
    Inference,
    PipelineStage,
    RenderPrompts,
)
from repro.resilience.breaker import CircuitOpenError


def config_fingerprint(config: BatcherConfig) -> str:
    """Stable content fingerprint of a design-space point.

    Hashes the sorted JSON form of :meth:`BatcherConfig.to_dict`, so any field
    change (model, seed, batching, ...) invalidates checkpoints written under
    the old configuration.
    """
    payload = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _run_key(context: PipelineContext) -> str:
    """Checkpoint file name of one (dataset, configuration) run."""
    return f"{context.dataset_name}-{config_fingerprint(context.config)[:12]}"


def batch_fingerprint(batch: QuestionBatch) -> str:
    """Canonical content fingerprint of one question batch.

    Hashes the (global index, pair fingerprint) sequence of the batch's
    questions, so it identifies both *which* pairs the batch contains and
    *where* they sit in the run's question order — exactly the facts a
    checkpointed response depends on.
    """
    digest = hashlib.blake2b(digest_size=16)
    for index, pair in zip(batch.indices, batch.pairs):
        digest.update(f"{index}:".encode("ascii"))
        digest.update(pair_fingerprint(pair).encode("ascii"))
    return digest.hexdigest()


def _plan_fingerprint(fingerprints: Sequence[str]) -> str:
    """Content fingerprint of a whole batch plan (batch fingerprints in order)."""
    return hashlib.blake2b(
        "\n".join(fingerprints).encode("ascii"), digest_size=16
    ).hexdigest()


@dataclass(frozen=True)
class EngineReport:
    """Counters describing how the last engine run was executed.

    Attributes:
        num_batches: total batches (= total LLM calls a fresh run makes).
        batches_executed: batches answered live in this run.
        batches_resumed: batches replayed from checkpoints (zero LLM calls).
        llm_calls: LLM calls accounted on the result (live + resumed).
        llm_calls_saved: calls the resume avoided re-paying.
        checkpointed: whether a checkpoint store persisted this run.
        paused: the run stopped on an open circuit breaker
            (:class:`~repro.resilience.CircuitOpenError`) after persisting
            every completed batch — call :meth:`RunEngine.execute` again once
            the backend recovers; the resume repeats zero LLM calls.
    """

    num_batches: int
    batches_executed: int
    batches_resumed: int
    llm_calls: int
    llm_calls_saved: int
    checkpointed: bool
    paused: bool = False

    def to_dict(self) -> dict[str, object]:
        """Return a plain-dict snapshot (JSON-serializable, for benchmarks)."""
        return asdict(self)


class CheckpointedInference(PipelineStage):
    """The engine's ``inference`` stage: one call per batch, resumable.

    Replays the responses checkpointed for this run, dispatches every pending
    batch prompt through ``context.llm`` on the executor (a recorded failure
    stops further calls from starting; in-flight ones settle and are
    persisted),
    appends each answer to the checkpoint file, and attaches the usage summed
    over live and replayed responses to ``context.cost``.  Without a store it
    computes no fingerprints and writes nothing.

    Args:
        executor: backend bounding in-flight LLM calls (``None`` = serial).
        store: checkpoint store, or ``None`` for an unpersisted run.
    """

    name = Inference.name

    def __init__(
        self,
        executor: ExecutionBackend | None = None,
        store: CheckpointStore | None = None,
    ) -> None:
        self.executor = executor
        self.store = store
        #: Counters of the last run of this stage (``None`` before the first).
        self.report: EngineReport | None = None

    def run(self, context: PipelineContext) -> None:
        batches = context.require("batches", BatchQuestions.name)
        prompts = context.require("prompts", RenderPrompts.name)
        responses: list[LLMResponse | None] = [None] * len(prompts)
        fingerprints: list[str] = []
        writer = None
        if self.store is not None:
            fingerprints = [batch_fingerprint(batch) for batch in batches]
            # Answers replayed under another provider model or endpoint
            # would be the wrong model's: the header pins both.
            described = context.llm.describe()
            header = RunHeader(
                dataset=context.dataset_name,
                config_fingerprint=config_fingerprint(context.config),
                batches_fingerprint=_plan_fingerprint(fingerprints),
                num_batches=len(batches),
                model=context.config.model,
                **{
                    key: str(described[key])
                    for key in ("provider_model", "base_url")
                    if described.get(key) is not None
                },
            )
            completed, writer = self.store.open(_run_key(context), header)
            for batch_id, record in completed.items():
                if not (
                    0 <= batch_id < len(batches)
                    and record.fingerprint == fingerprints[batch_id]
                ):
                    writer.close()
                    raise ValueError(
                        f"checkpointed batch {batch_id} does not match the "
                        "planned batch's fingerprint"
                    )
                responses[batch_id] = record.response()
        pending = [batch_id for batch_id, seen in enumerate(responses) if seen is None]
        resumed = len(responses) - len(pending)
        failed = threading.Event()
        append_lock = threading.Lock()

        def answer(batch_id: int) -> None:
            if failed.is_set():
                return
            try:
                response = context.llm.complete(prompts[batch_id].text)
                if writer is not None:
                    record = BatchRecord.from_response(
                        batch_id, fingerprints[batch_id], response
                    )
                    with append_lock:
                        writer.append(record)
            except Exception:
                failed.set()
                raise
            responses[batch_id] = response

        try:
            outcomes = (self.executor or SerialExecutor()).map_settled(answer, pending)
        finally:
            if writer is not None:
                writer.close()
        errors = [error for _, error in outcomes if error is not None]
        executed = sum(responses[batch_id] is not None for batch_id in pending)
        self.report = EngineReport(
            num_batches=len(batches),
            batches_executed=executed,
            batches_resumed=resumed,
            llm_calls=executed + resumed,
            llm_calls_saved=resumed,
            checkpointed=self.store is not None,
            paused=any(isinstance(error, CircuitOpenError) for error in errors),
        )
        if errors:
            raise errors[0]
        usage = UsageTracker()
        for response in responses:
            usage.add_totals(1, response.prompt_tokens, response.completion_tokens)
        context.cost.attach_usage(usage)
        context.responses = responses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointedInference(executor={self.executor!r}, store={self.store!r})"


class RunEngine:
    """Checkpointable executor of benchmark runs.

    Args:
        config: the design-space point to run.
        llm: optional pre-built LLM client; by default one is created from
            the config.
        executor: backend dispatching the batch prompts; its worker bound is
            the number of in-flight LLM calls.  ``None`` dispatches serially.
        checkpoint_dir: directory of crash-safe per-run checkpoint files;
            each run's file is named by dataset + config fingerprint, so one
            directory serves many configurations.  ``None`` disables
            checkpointing (the run cannot resume).
        checkpoint_store: pre-built store (overrides ``checkpoint_dir``);
            fault-injection tests pass a crashing store here.
        hooks: pipeline telemetry hooks, notified around all seven stages.
        tracer: span producer the run's ``stage:*`` spans are recorded into.
    """

    def __init__(
        self,
        config: BatcherConfig | None = None,
        llm: LLMClient | None = None,
        executor: ExecutionBackend | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_store: CheckpointStore | None = None,
        hooks: Iterable[StageHook] = (),
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or BatcherConfig()
        self._llm = llm
        if checkpoint_store is None and checkpoint_dir is not None:
            checkpoint_store = CheckpointStore(checkpoint_dir)
        self._inference = CheckpointedInference(executor, checkpoint_store)
        self.pipeline = Pipeline(
            [
                self._inference if stage is Inference else stage()
                for stage in DEFAULT_STAGES
            ],
            hooks=hooks,
        )
        self._tracer = tracer or NOOP_TRACER

    @property
    def checkpoint_store(self) -> CheckpointStore | None:
        """The checkpoint store (``None`` when checkpointing is off)."""
        return self._inference.store

    @property
    def last_report(self) -> EngineReport | None:
        """Counters of the last inference stage run (partial after a failure)."""
        return self._inference.report

    def plan(self, dataset: Dataset) -> PipelineContext:
        """Build the run's context and run the stages up to ``render-prompts``.

        No LLM call is made: batching, demonstration selection (and its
        labeling cost) and every prompt are fixed here.
        """
        context = PipelineContext.from_dataset(dataset, self.config, llm=self._llm)
        context.tracer = self._tracer
        return self.pipeline.run_until(context, RenderPrompts.name)

    def run(self, dataset: Dataset) -> RunResult:
        """Execute (or resume) a full run and return the evaluated result."""
        return self.execute(self.plan(dataset))

    def execute(self, context: PipelineContext) -> RunResult:
        """Run the stages ``context`` has not completed yet; return the result.

        A failure in the inference stage — an open circuit breaker included —
        leaves every completed batch checkpointed and ``last_report`` set
        (``paused=True`` for a :class:`~repro.resilience.CircuitOpenError`).
        Calling ``execute`` again with the same context skips the completed
        stages and, with a checkpoint store, repeats zero LLM calls.
        """
        self.pipeline.run(context)
        assert context.result is not None  # produced by the Evaluate stage
        return context.result
