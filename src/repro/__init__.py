"""BatchER reproduction: cost-effective in-context learning for entity resolution.

This package reproduces the system described in "Cost-Effective In-Context
Learning for Entity Resolution: A Design Space Exploration" (ICDE 2024).
It provides:

* a data substrate with synthetic Magellan-style ER benchmarks
  (:mod:`repro.data`),
* string similarity, tokenization and embedding substrates (:mod:`repro.text`),
* clustering (:mod:`repro.clustering`) and feature extraction
  (:mod:`repro.features`) behind a content-addressed columnar feature engine
  (:class:`FeatureStore`) shared by the pipeline, resolver sessions and the
  service,
* the BatchER design space: question batching (:mod:`repro.batching`) and
  demonstration selection (:mod:`repro.selection`) including the covering-based
  strategy built on greedy set cover,
* prompt construction and answer parsing (:mod:`repro.prompting`),
* a simulated LLM substrate with usage/pricing accounting and pluggable
  execution backends for concurrent prompt dispatch (:mod:`repro.llm`),
* the staged pipeline API (:mod:`repro.pipeline`): individually-runnable
  stages passing a typed :class:`PipelineContext`, per-stage telemetry, and
  the streaming :class:`Resolver` session for serving ad-hoc pair streams,
* supervised PLM-style baselines and the ManualPrompt baseline
  (:mod:`repro.baselines`),
* the end-to-end :class:`repro.core.BatchER` facade over the pipeline,
* the sharded, checkpointable run engine (:mod:`repro.engine`): a
  :class:`RunEngine` that splits a run into deterministic shards of whole
  batches, executes them serially or concurrently with per-batch JSONL
  checkpoints, and merges byte-identical results — a killed run resumes with
  zero repeated LLM calls (fault-injection tested via
  :mod:`repro.engine.faults`),
* the online serving subsystem (:mod:`repro.service`): a micro-batching
  :class:`ResolutionService` aggregating concurrent requests into shared
  batch prompts, with a pair-level result cache, cost-aware admission,
  multi-tenant API-key quotas and budgets, and a stdlib asyncio HTTP front
  end (``repro-serve``), and
* experiment runners reproducing every table and figure of the paper
  (:mod:`repro.experiments`).

Quickstart — benchmarking
-------------------------

>>> from repro import BatchER, BatcherConfig, load_dataset
>>> dataset = load_dataset("beer", seed=7)
>>> config = BatcherConfig(batching="diverse", selection="covering")
>>> framework = BatchER(config)
>>> result = framework.run(dataset)
>>> 0.0 <= result.metrics.f1 <= 100.0
True

Quickstart — serving
--------------------

>>> from repro import ConcurrentExecutor, Resolver
>>> resolver = Resolver.from_dataset(dataset, config, executor=ConcurrentExecutor(4))
>>> pairs = [pair.without_label() for pair in dataset.splits.test][:8]
>>> resolutions = resolver.resolve(pairs)
>>> len(resolutions) == len(pairs)
True
"""

from repro.core.config import BatcherConfig
from repro.core.batcher import BatchER
from repro.core.result import RunResult
from repro.core.standard import StandardPromptingER
from repro.data.registry import available_datasets, load_dataset
from repro.engine import CheckpointStore, RunEngine, ShardPlanner
from repro.evaluation.metrics import MatchingMetrics, evaluate_predictions
from repro.llm.executors import (
    ConcurrentExecutor,
    ExecutionBackend,
    SerialExecutor,
    create_executor,
)
from repro.features import FeatureStore
from repro.pipeline import (
    Pipeline,
    PipelineContext,
    Resolution,
    Resolver,
    StageHook,
)
from repro.service import ResolutionService, ResultCache, ServiceConfig, TenantConfig

__version__ = "1.10.0"

__all__ = [
    "BatchER",
    "BatcherConfig",
    "CheckpointStore",
    "ConcurrentExecutor",
    "ExecutionBackend",
    "FeatureStore",
    "MatchingMetrics",
    "Pipeline",
    "PipelineContext",
    "Resolution",
    "ResolutionService",
    "Resolver",
    "ResultCache",
    "RunEngine",
    "RunResult",
    "SerialExecutor",
    "ShardPlanner",
    "ServiceConfig",
    "StageHook",
    "StandardPromptingER",
    "TenantConfig",
    "available_datasets",
    "create_executor",
    "evaluate_predictions",
    "load_dataset",
    "__version__",
]
