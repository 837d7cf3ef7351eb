"""The BatchER framework orchestrator (paper Figure 2).

``BatchER.run`` wires the whole batch-prompting pipeline together:

1. take the dataset's test split as the *question set* and its train split as
   the *unlabeled demonstration pool*;
2. extract feature vectors for questions and pool pairs;
3. group questions into batches with the configured batching strategy;
4. select (and "manually label") demonstrations per batch with the configured
   selection strategy;
5. render one batch prompt per batch, query the LLM, parse the answers;
6. evaluate F1 against the gold labels and account API + labeling cost.

Every run goes through one runner: :class:`~repro.engine.engine.RunEngine`
runs the seven stages of :mod:`repro.pipeline` (its own ``inference`` stage
dispatches one LLM call per batch and, given a ``checkpoint_dir``, persists
each answer so a killed run resumes without re-paying).  Use the pipeline API
directly to run, inspect or re-compose individual stages, and
:class:`repro.pipeline.Resolver` to serve ad-hoc pair streams.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.core.config import BatcherConfig
from repro.core.result import RunResult
from repro.data.schema import Dataset
from repro.engine.engine import RunEngine
from repro.llm.base import LLMClient
from repro.llm.executors import ExecutionBackend
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.pipeline.pipeline import StageHook


class BatchER:
    """Cost-effective batch prompting framework for entity resolution.

    Args:
        config: the design-space point to run.
        llm: optional pre-built LLM client (useful for injecting a different
            seed or a custom client in tests); by default one is created from
            the config.
        executor: optional execution backend used to dispatch the independent
            batch prompts (``None`` = serial); its worker bound is the number
            of in-flight LLM calls.  A
            :class:`~repro.llm.executors.ConcurrentExecutor` parallelises the
            LLM calls without changing any result.
        hooks: optional pipeline telemetry hooks (per-stage observers).
        tracer: optional span producer; when given, every run opens a root
            ``batcher:run`` span with per-stage children.  Tracing observes
            the run without altering any result.
    """

    def __init__(
        self,
        config: BatcherConfig | None = None,
        llm: LLMClient | None = None,
        executor: ExecutionBackend | None = None,
        hooks: Iterable[StageHook] = (),
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or BatcherConfig()
        self._llm = llm
        self._executor = executor
        self._hooks = tuple(hooks)
        self._tracer = tracer or NOOP_TRACER

    def build_engine(self, checkpoint_dir: str | Path | None = None) -> RunEngine:
        """The run engine ``run(dataset, checkpoint_dir=...)`` uses.

        Exposed so callers can inspect ``engine.last_report`` (resumed
        batches, LLM calls saved) or ``engine.pipeline`` after a run.
        """
        return RunEngine(
            config=self.config,
            llm=self._llm,
            executor=self._executor,
            checkpoint_dir=checkpoint_dir,
            hooks=self._hooks,
            tracer=self._tracer,
        )

    # -- main entry point -----------------------------------------------------

    def run(
        self, dataset: Dataset, checkpoint_dir: str | Path | None = None
    ) -> RunResult:
        """Run the framework on ``dataset`` and return the evaluated result.

        Args:
            checkpoint_dir: persist every answered batch under this
                directory; a killed run re-invoked with the same arguments
                resumes with zero repeated LLM calls.  The result is
                byte-identical to an unpersisted run for a fixed seed.
        """
        with self._tracer.span("batcher:run") as scope:
            if self._tracer.enabled:
                scope.set_attribute("dataset", dataset.name)
            return self.build_engine(checkpoint_dir).run(dataset)

    def run_many(self, datasets: Sequence[Dataset]) -> list[RunResult]:
        """Run the framework on several datasets and return all results."""
        return [self.run(dataset) for dataset in datasets]
