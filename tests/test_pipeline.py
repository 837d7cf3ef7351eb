"""Tests for the staged pipeline API: stage composition, execution backends,
``complete_many`` ordering and facade equivalence."""

import threading
import time

import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.llm.executors import ConcurrentExecutor, SerialExecutor, create_executor
from repro.llm.simulated import SimulatedLLM
from repro.pipeline import (
    BatchQuestions,
    Evaluate,
    Featurize,
    Inference,
    ParseAnswers,
    Pipeline,
    PipelineContext,
    RenderPrompts,
    SelectDemonstrations,
    StageHook,
)
from repro.resilience import DeadlineBudget, current_deadline, deadline_scope


class TestExecutionBackends:
    def test_serial_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_concurrent_preserves_input_order(self):
        # Items that finish fast must not overtake slow earlier items.
        def slow_then_fast(item):
            time.sleep(0.02 if item == 0 else 0.0)
            return item

        results = ConcurrentExecutor(max_workers=4).map(slow_then_fast, range(8))
        assert results == list(range(8))

    def test_concurrent_actually_runs_in_parallel(self):
        barrier = threading.Barrier(2, timeout=5)

        def rendezvous(item):
            barrier.wait()  # deadlocks unless two calls are in flight at once
            return item

        assert ConcurrentExecutor(max_workers=2).map(rendezvous, [0, 1]) == [0, 1]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ConcurrentExecutor(max_workers=0)

    def test_create_executor(self):
        assert isinstance(create_executor(1), SerialExecutor)
        concurrent = create_executor(6)
        assert isinstance(concurrent, ConcurrentExecutor)
        assert concurrent.max_workers == 6
        with pytest.raises(ValueError, match="jobs"):
            create_executor(0)

    def test_persistent_pool_reused_across_maps(self):
        with ConcurrentExecutor(max_workers=2, persistent=True) as executor:
            pool = executor._pool
            assert pool is not None
            assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
            assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
            assert executor._pool is pool  # one long-lived pool, not per-call
        assert executor._pool is None  # released on context exit

    def test_map_after_shutdown_rejected(self):
        executor = ConcurrentExecutor(max_workers=2, persistent=True)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            executor.map(lambda x: x, [1, 2])
        # Shutdown also invalidates non-persistent backends (explicit
        # lifecycle errors beat silently recreating pools).
        per_call = ConcurrentExecutor(max_workers=2)
        per_call.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            per_call.map(lambda x: x, [1, 2])


@pytest.fixture(params=["per-call", "persistent"])
def concurrent_executor(request):
    """A 4-worker :class:`ConcurrentExecutor` on each kind of pool."""
    with ConcurrentExecutor(max_workers=4, persistent=request.param == "persistent") as executor:
        yield executor


def test_concurrent_map_of_no_items_is_empty(concurrent_executor):
    assert concurrent_executor.map(lambda x: x, []) == []


def test_workers_run_under_the_submitting_threads_deadline(concurrent_executor):
    """Each task sees the caller's ambient deadline (the retry ladder reads
    it there), through map and map_settled, and none leaks into a later map."""
    budget = DeadlineBudget(30.0)
    with deadline_scope(budget):
        seen = concurrent_executor.map(lambda _: current_deadline(), range(8))
        settled = concurrent_executor.map_settled(lambda _: current_deadline(), range(8))
    assert all(deadline is budget for deadline in seen)
    assert all(deadline is budget and error is None for deadline, error in settled)
    assert concurrent_executor.map(lambda _: current_deadline(), range(8)) == [None] * 8


class TestMapSettled:
    """The ``map_settled`` contract the run engine's inference relies on."""

    def test_results_come_back_in_input_order(self, concurrent_executor):
        def slow_then_fast(item):
            time.sleep(0.002 * (8 - item))
            return item * 10

        settled = concurrent_executor.map_settled(slow_then_fast, range(8))
        assert settled == [(item * 10, None) for item in range(8)]

    @pytest.mark.parametrize("count", [0, 1, 2, 9])
    def test_every_item_settles_with_exactly_one_side_set(self, concurrent_executor, count):
        def every_third_raises(item):
            if item % 3 == 0:
                raise ValueError(f"item {item}")
            return f"ok {item}"

        settled = concurrent_executor.map_settled(every_third_raises, range(count))
        assert len(settled) == count
        for item, (result, error) in enumerate(settled):
            assert (result is None) != (error is None)
            if item % 3 == 0:
                assert isinstance(error, ValueError) and str(error) == f"item {item}"
            else:
                assert result == f"ok {item}"

    def test_a_failure_does_not_stop_its_siblings(self, concurrent_executor):
        # Twelve items on four workers: the first item fails at once, so
        # most siblings start after the failure and must still run.
        ran = []
        lock = threading.Lock()

        def first_fails(item):
            if item == 0:
                raise RuntimeError("boom")
            time.sleep(0.001)
            with lock:
                ran.append(item)
            return item

        settled = concurrent_executor.map_settled(first_fails, range(12))
        assert settled[0][0] is None and isinstance(settled[0][1], RuntimeError)
        assert settled[1:] == [(item, None) for item in range(1, 12)]
        assert sorted(ran) == list(range(1, 12))


class TestCompleteMany:
    def _prompts(self, dataset):
        from repro.prompting.batch import BatchPromptBuilder

        builder = BatchPromptBuilder(attributes=dataset.attributes)
        questions = list(dataset.splits.test)
        demos = list(dataset.splits.train)[:4]
        return [
            builder.build(questions[i : i + 4], demos).text for i in range(0, 24, 4)
        ]

    def test_serial_matches_loop_of_complete(self, beer_dataset):
        prompts = self._prompts(beer_dataset)
        reference = [SimulatedLLM("gpt-3.5-03", seed=1).complete(t).text for t in prompts]
        llm = SimulatedLLM("gpt-3.5-03", seed=1)
        responses = llm.complete_many(prompts)
        assert [response.text for response in responses] == reference
        assert llm.usage.num_calls == len(prompts)

    def test_concurrent_is_deterministic_and_ordered(self, beer_dataset):
        prompts = self._prompts(beer_dataset)
        serial = SimulatedLLM("gpt-3.5-03", seed=1).complete_many(prompts)
        llm = SimulatedLLM("gpt-3.5-03", seed=1)
        concurrent = llm.complete_many(prompts, executor=ConcurrentExecutor(max_workers=8))
        assert [r.text for r in concurrent] == [r.text for r in serial]
        # Usage totals are order-independent sums, so cost is identical too.
        assert llm.usage.num_calls == len(prompts)
        assert llm.usage.total_tokens == sum(r.total_tokens for r in serial)


class TestPipelineComposition:
    def test_default_stage_order(self):
        assert Pipeline.default().stage_names == (
            "featurize",
            "batch-questions",
            "select-demonstrations",
            "render-prompts",
            "inference",
            "parse-answers",
            "evaluate",
        )

    def test_stages_are_individually_runnable(self, beer_dataset):
        config = BatcherConfig(seed=1, max_questions=24)
        context = PipelineContext.from_dataset(beer_dataset, config)
        Featurize()(context)
        assert context.question_features.shape[0] == 24
        BatchQuestions()(context)
        assert sum(len(batch) for batch in context.batches) == 24
        SelectDemonstrations()(context)
        assert context.selection.num_labeled > 0
        RenderPrompts()(context)
        assert len(context.prompts) == len(context.batches)
        Inference()(context)
        assert len(context.responses) == len(context.prompts)
        ParseAnswers()(context)
        assert len(context.predictions) == 24
        Evaluate()(context)
        assert context.result is not None

    def test_manual_stage_run_matches_facade(self, beer_dataset):
        config = BatcherConfig(seed=3, max_questions=32)
        facade = BatchER(config).run(beer_dataset)
        context = Pipeline.default().run(PipelineContext.from_dataset(beer_dataset, config))
        assert context.result.metrics == facade.metrics
        assert context.result.predictions == facade.predictions
        assert context.result.cost == facade.cost

    def test_missing_prerequisite_raises(self, beer_dataset):
        context = PipelineContext.from_dataset(beer_dataset, BatcherConfig(max_questions=8))
        with pytest.raises(ValueError, match="featurize"):
            BatchQuestions()(context)
        with pytest.raises(ValueError, match="parse-answers"):
            Evaluate()(context)

    def test_run_until_stops_early(self, beer_dataset):
        config = BatcherConfig(seed=1, max_questions=16)
        context = PipelineContext.from_dataset(beer_dataset, config)
        Pipeline.default().run_until(context, "batch-questions")
        assert context.batches is not None
        assert context.prompts is None
        assert context.result is None

    def test_run_after_run_until_resumes_without_recharging(self, beer_dataset):
        config = BatcherConfig(seed=1, max_questions=24)
        fresh = BatchER(config).run(beer_dataset)
        pipeline = Pipeline.default()
        context = PipelineContext.from_dataset(beer_dataset, config)
        pipeline.run_until(context, "select-demonstrations")
        pipeline.run(context)  # must resume, not re-execute the paid prefix
        assert context.result.cost == fresh.cost
        assert context.result.predictions == fresh.predictions
        assert [timing.stage for timing in context.timings] == list(pipeline.stage_names)
        # Repeating run() on a finished context is a no-op.
        pipeline.run(context)
        assert len(context.timings) == len(pipeline.stage_names)
        assert context.result.cost == fresh.cost

    def test_run_until_unknown_stage_rejected(self, beer_dataset):
        context = PipelineContext.from_dataset(beer_dataset, BatcherConfig(max_questions=8))
        with pytest.raises(ValueError, match="unknown stage"):
            Pipeline.default().run_until(context, "nonexistent")

    def test_timings_and_hooks(self, beer_dataset):
        events = []

        class Recorder(StageHook):
            def on_stage_start(self, stage, context):
                events.append(("start", stage.name))

            def on_stage_end(self, stage, context, seconds):
                events.append(("end", stage.name))
                assert seconds >= 0.0

        config = BatcherConfig(seed=1, max_questions=16)
        pipeline = Pipeline.default(hooks=[Recorder()])
        context = pipeline.run(PipelineContext.from_dataset(beer_dataset, config))
        assert [timing.stage for timing in context.timings] == list(pipeline.stage_names)
        assert events[0] == ("start", "featurize")
        assert events[-1] == ("end", "evaluate")
        assert len(events) == 2 * len(pipeline.stage_names)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])


class TestSerialVsConcurrentDeterminism:
    def test_identical_run_results_on_beer(self, beer_dataset):
        config = BatcherConfig(seed=1)
        serial = BatchER(config, executor=SerialExecutor()).run(beer_dataset)
        concurrent = BatchER(config, executor=ConcurrentExecutor(max_workers=8)).run(
            beer_dataset
        )
        default = BatchER(config).run(beer_dataset)
        for other in (concurrent, default):
            assert other.predictions == serial.predictions
            assert other.metrics == serial.metrics
            assert other.cost == serial.cost
            assert other.num_unanswered == serial.num_unanswered

    def test_facade_pipeline_is_inspectable(self):
        framework = BatchER(BatcherConfig(), executor=ConcurrentExecutor(2))
        pipeline = framework.build_engine().pipeline
        assert pipeline.stage_names == Pipeline.default().stage_names
        inference = [stage for stage in pipeline.stages if stage.name == Inference.name]
        assert len(inference) == 1
        assert isinstance(inference[0].executor, ConcurrentExecutor)
