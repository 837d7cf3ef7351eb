"""AsyncExecutor tests: golden equivalence and the retry/usage property.

The asyncio dispatch lane must be invisible in results: a framework run
through :class:`AsyncExecutor` is byte-identical to the serial and
thread-pool paths, with or without a checkpoint store — and a flaky transport under
concurrent dispatch may change *when* requests are retried but never what
they return or how much usage is recorded.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.engines import FakeClock, FlakyTransport, SimulatedBackendTransport, create_engine
from repro.llm.base import LLMResponse
from repro.llm.executors import (
    AsyncExecutor,
    ConcurrentExecutor,
    SerialExecutor,
    create_executor,
)
from repro.llm.simulated import SimulatedLLM

CONFIG = BatcherConfig(seed=3, max_questions=64)

PROMPTS = [f"Q{i}: do entity A and entity B match? Answer Yes or No." for i in range(12)]


class TestMapContract:
    def test_results_preserve_input_order(self):
        executor = AsyncExecutor(max_in_flight=8)
        assert executor.map(lambda x: x * 2, range(50)) == [x * 2 for x in range(50)]

    def test_empty_input(self):
        assert AsyncExecutor().map(lambda x: x, []) == []

    def test_async_callables_run_natively(self):
        async def double(x):
            await asyncio.sleep(0)
            return x * 2

        assert AsyncExecutor(max_in_flight=4).map(double, range(10)) == [
            x * 2 for x in range(10)
        ]

    def test_map_settled_settles_failures(self):
        def explode(x):
            if x == 3:
                raise RuntimeError("boom")
            return x

        settled = AsyncExecutor(max_in_flight=4).map_settled(explode, range(5))
        assert [result for result, _ in settled[:3]] == [0, 1, 2]
        assert settled[3][0] is None and isinstance(settled[3][1], RuntimeError)
        assert settled[4] == (4, None)

    def test_refuses_nested_event_loop(self):
        async def call_inside_loop():
            AsyncExecutor().map(lambda x: x, [1])

        with pytest.raises(RuntimeError, match="running event loop"):
            asyncio.run(call_inside_loop())

    def test_validates_max_in_flight(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            AsyncExecutor(max_in_flight=0)

    def test_create_executor_kinds(self):
        assert isinstance(create_executor(1), SerialExecutor)
        assert isinstance(create_executor(4), ConcurrentExecutor)
        assert isinstance(create_executor(4, kind="async"), AsyncExecutor)
        assert isinstance(create_executor(1, kind="concurrent"), ConcurrentExecutor)
        with pytest.raises(ValueError, match="unknown executor kind"):
            create_executor(2, kind="fibers")


class TestCompletionParity:
    def test_complete_many_matches_serial(self):
        serial_llm = create_engine("simulated", model="gpt-3.5-03", seed=5)
        async_llm = create_engine("simulated", model="gpt-3.5-03", seed=5)
        expected = serial_llm.complete_many(PROMPTS, executor=SerialExecutor())
        actual = async_llm.complete_many(PROMPTS, executor=AsyncExecutor(max_in_flight=6))
        assert actual == expected
        assert async_llm.usage.num_calls == serial_llm.usage.num_calls == len(PROMPTS)
        assert async_llm.usage.total_tokens == serial_llm.usage.total_tokens

    def test_acomplete_matches_complete(self):
        engine = create_engine("simulated", model="gpt-4", seed=2)
        reference = create_engine("simulated", model="gpt-4", seed=2)
        response = asyncio.run(engine.acomplete(PROMPTS[0]))
        assert isinstance(response, LLMResponse)
        assert response == reference.complete(PROMPTS[0])


class TestGoldenEquivalence:
    """engine=simulated through AsyncExecutor == Serial == Concurrent."""

    @pytest.fixture(scope="class")
    def beer_serial(self, beer_dataset):
        return BatchER(CONFIG, executor=SerialExecutor()).run(beer_dataset)

    @pytest.fixture(scope="class")
    def fz_serial(self, fz_dataset):
        return BatchER(CONFIG, executor=SerialExecutor()).run(fz_dataset)

    @pytest.mark.parametrize("checkpointed", [False, True], ids=["no-store", "store"])
    def test_beer_async_equals_serial(self, beer_dataset, beer_serial, tmp_path, checkpointed):
        result = BatchER(CONFIG, executor=AsyncExecutor(max_in_flight=8)).run(
            beer_dataset, checkpoint_dir=tmp_path if checkpointed else None
        )
        assert result == beer_serial
        assert repr(result) == repr(beer_serial)

    @pytest.mark.parametrize("checkpointed", [False, True], ids=["no-store", "store"])
    def test_fz_async_equals_serial(self, fz_dataset, fz_serial, tmp_path, checkpointed):
        result = BatchER(CONFIG, executor=AsyncExecutor(max_in_flight=8)).run(
            fz_dataset, checkpoint_dir=tmp_path if checkpointed else None
        )
        assert result == fz_serial
        assert repr(result) == repr(fz_serial)

    def test_beer_async_equals_concurrent(self, beer_dataset, beer_serial):
        result = BatchER(CONFIG, executor=ConcurrentExecutor(max_workers=4)).run(
            beer_dataset
        )
        assert result == beer_serial


class TestRetriesNeverDoubleCountUsage:
    """Property: faults change retry counters, never results or usage."""

    def run_engine(self, fail_at, executor):
        sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        transport = FlakyTransport(SimulatedBackendTransport(sim), fail_at=fail_at)
        engine = create_engine(
            "openai",
            transport=transport,
            clock=FakeClock(),
            api_key="sk-test",
            model="gpt-3.5-03",
            seed=0,
        )
        responses = engine.complete_many(PROMPTS, executor=executor)
        return engine, responses

    @pytest.fixture(scope="class")
    def clean_run(self):
        engine, responses = self.run_engine(frozenset(), SerialExecutor())
        return engine.usage, responses

    @settings(max_examples=25, deadline=None)
    @given(
        fail_at=st.sets(st.integers(min_value=1, max_value=14), max_size=5).filter(
            # Keep fault runs shorter than the retry budget so every prompt
            # eventually succeeds (max_attempts=5 tolerates 4-in-a-row).
            lambda s: all(not {o, o + 1, o + 2, o + 3} <= s for o in s)
        )
    )
    def test_serial_dispatch(self, clean_run, fail_at):
        clean_usage, clean_responses = clean_run
        engine, responses = self.run_engine(fail_at, SerialExecutor())
        assert responses == clean_responses
        assert engine.usage.num_calls == clean_usage.num_calls == len(PROMPTS)
        assert engine.usage.prompt_tokens == clean_usage.prompt_tokens
        assert engine.usage.completion_tokens == clean_usage.completion_tokens

    @settings(max_examples=10, deadline=None)
    @given(fail_at=st.sets(st.integers(min_value=1, max_value=14), max_size=2))
    def test_async_dispatch(self, clean_run, fail_at):
        # Under concurrent dispatch the fault hits a nondeterministic request,
        # but responses are a pure function of the prompt — so results and
        # usage still match the clean serial run exactly.
        clean_usage, clean_responses = clean_run
        engine, responses = self.run_engine(fail_at, AsyncExecutor(max_in_flight=4))
        assert responses == clean_responses
        assert engine.usage.num_calls == clean_usage.num_calls
        assert engine.usage.total_tokens == clean_usage.total_tokens
        # Every injected failure was absorbed by a retry (an ordinal past the
        # last send never fires, so compare against what actually hit).
        assert engine.transport.stats()["retries"] == engine.transport.inner.injected_failures
