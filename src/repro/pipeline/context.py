"""The typed artifact passed between pipeline stages.

A :class:`PipelineContext` is the single mutable value object a
:class:`~repro.pipeline.pipeline.Pipeline` threads through its stages.  Each
stage reads the fields produced by earlier stages (enforced via
:meth:`PipelineContext.require`) and fills in its own outputs, so any prefix of
the stage sequence is independently runnable and inspectable — the property the
staged API is built around.

Contexts are constructed either from a benchmark dataset
(:meth:`PipelineContext.from_dataset`, the ``BatchER.run`` path) or from an
ad-hoc stream of entity pairs (:meth:`PipelineContext.from_pairs`, the
``Resolver`` serving path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.core.config import BatcherConfig
from repro.core.result import RunResult
from repro.cost.tracker import CostTracker
from repro.data.schema import Dataset, EntityPair, MatchLabel
from repro.features.engine import FeatureStore
from repro.llm.base import LLMClient, LLMResponse
from repro.llm.registry import create_llm
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.prompting.prompt import Prompt
from repro.selection.base import SelectionResult


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock telemetry for one executed stage."""

    stage: str
    seconds: float


@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline stages.

    Attributes:
        config: the design-space point being run.
        questions: the entity pairs to resolve, in evaluation order.
        pool: the (labeled) demonstration pool.
        attributes: shared attribute schema used for featurization/prompting.
        llm: the LLM client answering the prompts.
        cost: monetary cost accumulator for the run.
        dataset_name: dataset code recorded on results (``"stream"`` for
            ad-hoc pair streams).
        method: method label recorded on results; defaults to
            ``batcher/<batching>+<selection>``.
        prelabeled_pool_indices: pool indices whose labeling cost was already
            paid (a :class:`~repro.pipeline.resolver.Resolver` session pays for
            each demonstration only once across many resolve calls).
        feature_store: the columnar feature engine used to featurize (and
            the owner of the run's
            :class:`~repro.clustering.neighbors.NeighborPlanner`, which routes
            batch planning between the exact sparse-graph and approximate
            LSH regimes).  A long-lived session (``Resolver``, the service)
            pre-sets a shared store so vectors are memoized across calls;
            ``Featurize`` builds an ephemeral one otherwise.
        question_features / pool_features: feature matrices (``Featurize``).
        batches: question batches (``BatchQuestions``).
        selection: per-batch demonstrations (``SelectDemonstrations``).
        prompts: rendered batch prompts, one per batch (``RenderPrompts``).
        responses: LLM responses aligned with ``prompts`` (``Inference``).
        answers: per-question parsed labels, ``None`` where the LLM failed to
            answer (``ParseAnswers``).
        predictions: ``answers`` with unanswered questions resolved to the
            fallback label (``ParseAnswers``).
        num_unanswered: count of unanswered questions (``ParseAnswers``).
        result: the evaluated :class:`RunResult` (``Evaluate``).
        timings: per-stage wall-clock telemetry appended by the pipeline.
        completed_stages: names of stages the pipeline has already run on this
            context; :meth:`Pipeline.run` skips them, so ``run_until`` followed
            by ``run`` resumes instead of re-executing (and re-charging) the
            prefix.
        tracer: span producer the pipeline (and everything it calls) records
            into; the default :data:`~repro.observability.tracing.NOOP_TRACER`
            keeps untraced runs effectively free of tracing overhead.
    """

    config: BatcherConfig
    questions: list[EntityPair]
    pool: list[EntityPair]
    attributes: tuple[str, ...]
    llm: LLMClient
    cost: CostTracker
    dataset_name: str = "stream"
    method: str | None = None
    prelabeled_pool_indices: frozenset[int] = frozenset()
    feature_store: FeatureStore | None = None
    question_features: np.ndarray | None = None
    pool_features: np.ndarray | None = None
    batches: list[QuestionBatch] | None = None
    selection: SelectionResult | None = None
    prompts: list[Prompt] | None = None
    responses: list[LLMResponse] | None = None
    answers: tuple[MatchLabel | None, ...] | None = None
    predictions: tuple[MatchLabel, ...] | None = None
    num_unanswered: int = 0
    result: RunResult | None = None
    timings: list[StageTiming] = field(default_factory=list)
    completed_stages: list[str] = field(default_factory=list)
    tracer: Tracer = NOOP_TRACER

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        config: BatcherConfig | None = None,
        llm: LLMClient | None = None,
    ) -> "PipelineContext":
        """Build a context for a benchmark run (test split vs. train pool)."""
        config = config or BatcherConfig()
        questions = list(dataset.splits.test)
        if config.max_questions is not None:
            questions = questions[: config.max_questions]
        if not questions:
            raise ValueError(f"dataset {dataset.name!r} has an empty test split")
        pool = list(dataset.splits.train)
        if not pool:
            raise ValueError(f"dataset {dataset.name!r} has an empty train split")
        return cls._build(
            config=config,
            questions=questions,
            pool=pool,
            attributes=dataset.attributes,
            llm=llm,
            dataset_name=dataset.name,
        )

    @classmethod
    def from_pairs(
        cls,
        questions: Sequence[EntityPair],
        pool: Sequence[EntityPair],
        attributes: tuple[str, ...] | None = None,
        config: BatcherConfig | None = None,
        llm: LLMClient | None = None,
        cost: CostTracker | None = None,
        dataset_name: str = "stream",
        method: str | None = None,
        prelabeled_pool_indices: frozenset[int] = frozenset(),
        reset_usage: bool = True,
    ) -> "PipelineContext":
        """Build a context for an ad-hoc pair stream against a given pool.

        Args:
            attributes: attribute schema; inferred from the first question's
                left record when omitted.
            cost: session-level cost tracker to accumulate into (a fresh one is
                created when omitted).
            prelabeled_pool_indices: pool indices whose labeling cost has
                already been paid in this session.
            reset_usage: whether to clear the LLM's usage before the run; a
                session keeping cumulative usage across calls passes ``False``.
        """
        config = config or BatcherConfig()
        questions = list(questions)
        if not questions:
            raise ValueError("cannot build a pipeline context without questions")
        pool = list(pool)
        if not pool:
            raise ValueError("cannot build a pipeline context without a demonstration pool")
        if attributes is None:
            attributes = tuple(questions[0].left.values.keys())
        return cls._build(
            config=config,
            questions=questions,
            pool=pool,
            attributes=attributes,
            llm=llm,
            cost=cost,
            dataset_name=dataset_name,
            method=method,
            prelabeled_pool_indices=prelabeled_pool_indices,
            reset_usage=reset_usage,
        )

    @classmethod
    def _build(
        cls,
        config: BatcherConfig,
        questions: list[EntityPair],
        pool: list[EntityPair],
        attributes: tuple[str, ...],
        llm: LLMClient | None,
        cost: CostTracker | None = None,
        dataset_name: str = "stream",
        method: str | None = None,
        prelabeled_pool_indices: frozenset[int] = frozenset(),
        reset_usage: bool = True,
    ) -> "PipelineContext":
        if llm is None:
            llm = create_llm(
                config.model,
                seed=config.seed,
                temperature=config.temperature,
                engine=config.engine,
            )
        elif reset_usage:
            llm.reset_usage()
        if cost is None:
            cost = CostTracker(config.model)
            cost.attach_usage(llm.usage)
        return cls(
            config=config,
            questions=questions,
            pool=pool,
            attributes=attributes,
            llm=llm,
            cost=cost,
            dataset_name=dataset_name,
            method=method,
            prelabeled_pool_indices=prelabeled_pool_indices,
        )

    def shard_view(
        self,
        batches: Sequence[QuestionBatch],
        prompts: Sequence[Prompt],
    ) -> "PipelineContext":
        """Build a sub-context executing only ``batches`` of this run.

        The run engine plans batching/selection/prompt-rendering once on the
        full context, then executes disjoint batch subsets (shards) through
        per-shard contexts produced here.  The view shares this context's
        :class:`~repro.features.engine.FeatureStore`, LLM client and cost
        tracker — only the questions, batches and prompts are narrowed, and
        batch indices are remapped to the view's local question order so the
        inference and parsing stages run on it unchanged.

        Raises:
            ValueError: if ``batches`` and ``prompts`` are not aligned.
        """
        if len(batches) != len(prompts):
            raise ValueError(
                f"shard view needs one prompt per batch, got {len(batches)} "
                f"batches and {len(prompts)} prompts"
            )
        questions: list[EntityPair] = []
        local_batches: list[QuestionBatch] = []
        for batch in batches:
            offset = len(questions)
            questions.extend(batch.pairs)
            local_batches.append(
                QuestionBatch(
                    batch_id=batch.batch_id,
                    indices=tuple(range(offset, offset + len(batch))),
                    pairs=batch.pairs,
                )
            )
        return PipelineContext(
            config=self.config,
            questions=questions,
            pool=self.pool,
            attributes=self.attributes,
            llm=self.llm,
            cost=self.cost,
            dataset_name=self.dataset_name,
            method=self.method,
            prelabeled_pool_indices=self.prelabeled_pool_indices,
            feature_store=self.feature_store,
            batches=local_batches,
            prompts=list(prompts),
            tracer=self.tracer,
        )

    # -- stage plumbing -------------------------------------------------------

    def require(self, field_name: str, producer: str):
        """Return ``field_name``, raising if the producing stage has not run.

        Raises:
            ValueError: when the field is still ``None`` — i.e. ``producer``
                (the stage that fills it) has not been run on this context.
        """
        value = getattr(self, field_name)
        if value is None:
            raise ValueError(
                f"pipeline context is missing {field_name!r}; "
                f"run the {producer!r} stage first"
            )
        return value

    @property
    def num_questions(self) -> int:
        """Number of questions carried by this context."""
        return len(self.questions)

    @property
    def method_label(self) -> str:
        """Method label recorded on results."""
        if self.method is not None:
            return self.method
        return f"batcher/{self.config.batching}+{self.config.selection}"
