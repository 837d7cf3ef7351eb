"""The individually-runnable stages of the BatchER pipeline.

Each stage is a small callable object with a stable ``name``; running a stage
reads its prerequisites off the :class:`~repro.pipeline.context.PipelineContext`
and writes its outputs back.  The default stage order (paper Figure 2) is::

    Featurize -> BatchQuestions -> SelectDemonstrations -> RenderPrompts
              -> Inference -> ParseAnswers -> Evaluate

but any prefix can be run on its own (e.g. stop after ``BatchQuestions`` to
inspect the batching, or swap ``Evaluate`` out for serving workloads where the
incoming pairs carry no gold labels).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.batching.base import validate_batching
from repro.batching.factory import create_batcher
from repro.core.result import RunResult
from repro.data.schema import MatchLabel
from repro.evaluation.metrics import evaluate_predictions
from repro.features.engine import create_feature_store
from repro.llm.executors import ExecutionBackend
from repro.pipeline.context import PipelineContext
from repro.prompting.batch import BatchPromptBuilder
from repro.prompting.parser import parse_batch_answers
from repro.selection.factory import create_selector


class PipelineStage(ABC):
    """Base class of all pipeline stages."""

    #: Stage name used in telemetry and error messages.
    name: str = "stage"

    @abstractmethod
    def run(self, context: PipelineContext) -> None:
        """Execute the stage, mutating ``context`` in place."""

    def __call__(self, context: PipelineContext) -> PipelineContext:
        """Run the stage and return the context (for fluent chaining)."""
        self.run(context)
        return context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Featurize(PipelineStage):
    """Extract feature matrices for the questions and the demonstration pool.

    Featurization goes through the context's columnar
    :class:`~repro.features.engine.FeatureStore` (an ephemeral one is built
    when a long-lived session did not pre-set a shared store), so pairs are
    featurized in vectorized batches and repeated value pairs are read from
    the process-wide similarity memo.  Matrices already present on the
    context are kept — a session that caches pool features across calls
    (e.g. a ``Resolver``) pre-sets ``pool_features`` and only the questions
    are featurized.
    """

    name = "featurize"

    def run(self, context: PipelineContext) -> None:
        if context.feature_store is None:
            store = create_feature_store(
                context.config.feature_extractor, context.attributes
            )
            # Ephemeral stores inherit the run's tracer so planner graph
            # builds appear in the trace.
            store.planner.tracer = context.tracer
            context.feature_store = store
        store = context.feature_store
        if context.question_features is None:
            context.question_features = store.extract_matrix(context.questions)
        if context.pool_features is None:
            context.pool_features = store.extract_matrix(context.pool)


class BatchQuestions(PipelineStage):
    """Group the questions into batches with the configured strategy.

    The feature store's :class:`~repro.clustering.neighbors.NeighborPlanner`
    supplies the clustering geometry: question sets cluster over a sparse
    epsilon-neighbor graph built in fixed-size blocks.
    """

    name = "batch-questions"

    def run(self, context: PipelineContext) -> None:
        config = context.config
        features = context.require("question_features", Featurize.name)
        batcher = create_batcher(
            config.batching, batch_size=config.batch_size, seed=config.seed
        )
        planner = (
            context.feature_store.planner if context.feature_store is not None else None
        )
        batches = batcher.create_batches(context.questions, features, planner=planner)
        validate_batching(batches, len(context.questions), config.batch_size)
        context.batches = batches


class SelectDemonstrations(PipelineStage):
    """Select (and pay the labeling cost for) per-batch demonstrations.

    The covering strategy plans through the store's planner: it resolves its
    radius there and radius-joins questions to the pool blockwise (see
    :mod:`repro.clustering.neighbors`), never materialising the
    question-to-pool matrix.
    """

    name = "select-demonstrations"

    def run(self, context: PipelineContext) -> None:
        config = context.config
        batches = context.require("batches", BatchQuestions.name)
        question_features = context.require("question_features", Featurize.name)
        pool_features = context.require("pool_features", Featurize.name)
        selector = create_selector(
            config.selection,
            num_demonstrations=config.num_demonstrations,
            metric=config.metric,
            seed=config.seed,
            threshold_percentile=config.threshold_percentile,
        )
        # As in BatchQuestions, the store's planner is the single planning point.
        planner = (
            context.feature_store.planner if context.feature_store is not None else None
        )
        selection = selector.select(
            batches,
            question_features,
            context.pool,
            pool_features,
            planner=planner,
        )
        context.selection = selection
        context.num_newly_labeled = len(
            selection.labeled_pool_indices - context.prelabeled_pool_indices
        )
        context.cost.record_labeled_pairs(context.num_newly_labeled)


class RenderPrompts(PipelineStage):
    """Render one batch prompt per question batch."""

    name = "render-prompts"

    def run(self, context: PipelineContext) -> None:
        batches = context.require("batches", BatchQuestions.name)
        selection = context.require("selection", SelectDemonstrations.name)
        builder = BatchPromptBuilder(attributes=context.attributes)
        context.prompts = [
            builder.build(batch.pairs, batch_demos.demonstrations)
            for batch, batch_demos in zip(batches, selection.per_batch)
        ]


class Inference(PipelineStage):
    """Dispatch the batch prompts to the LLM.

    Args:
        executor: optional execution backend; prompts are independent, so a
            :class:`~repro.llm.executors.ConcurrentExecutor` dispatches them in
            parallel.  Responses are always aligned with the prompt order, so
            the backend choice never changes the run's results.
    """

    name = "inference"

    def __init__(self, executor: ExecutionBackend | None = None) -> None:
        self.executor = executor

    def run(self, context: PipelineContext) -> None:
        prompts = context.require("prompts", RenderPrompts.name)
        context.responses = context.llm.complete_many(
            [prompt.text for prompt in prompts], executor=self.executor
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Inference(executor={self.executor!r})"


class ParseAnswers(PipelineStage):
    """Parse the LLM responses back into per-question predictions."""

    name = "parse-answers"

    #: Label assigned to questions the LLM failed to answer.
    fallback: MatchLabel = MatchLabel.NON_MATCH

    def run(self, context: PipelineContext) -> None:
        batches = context.require("batches", BatchQuestions.name)
        responses = context.require("responses", Inference.name)
        answers: list[MatchLabel | None] = [None] * len(context.questions)
        num_unanswered = 0
        for batch, response in zip(batches, responses):
            parsed = parse_batch_answers(response.text, num_questions=len(batch))
            num_unanswered += parsed.num_unanswered
            for question_index, label in zip(batch.indices, parsed.labels):
                answers[question_index] = label
        context.answers = tuple(answers)
        context.predictions = tuple(
            label if label is not None else self.fallback for label in answers
        )
        context.num_unanswered = num_unanswered


class Evaluate(PipelineStage):
    """Score the predictions against gold labels and assemble a RunResult."""

    name = "evaluate"

    def run(self, context: PipelineContext) -> None:
        predictions = context.require("predictions", ParseAnswers.name)
        batches = context.require("batches", BatchQuestions.name)
        gold = [question.label for question in context.questions]
        unlabeled = [
            question.pair_id
            for question, label in zip(context.questions, gold)
            if label is None
        ]
        if unlabeled:
            raise ValueError(
                "cannot evaluate unlabeled questions (no gold labels for "
                f"{unlabeled[:5]}); use a Resolver for unlabeled pair streams"
            )
        metrics = evaluate_predictions(gold, predictions)
        context.result = RunResult(
            dataset=context.dataset_name,
            method=context.method_label,
            metrics=metrics,
            cost=context.cost.breakdown(),
            num_questions=len(context.questions),
            num_batches=len(batches),
            num_unanswered=context.num_unanswered,
            predictions=predictions,
            config=context.config.to_dict(),
        )


#: The default stage classes, in execution order.
DEFAULT_STAGES = (
    Featurize,
    BatchQuestions,
    SelectDemonstrations,
    RenderPrompts,
    Inference,
    ParseAnswers,
    Evaluate,
)
