"""HTTP engine tests: dialects, usage accounting, structured output, faults.

Every test is hermetic: the engines talk to scripted transports or to the
simulated backend transport, never to a network, and every clock is fake.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    BATCH_ANSWERS_SCHEMA,
    AnthropicEngine,
    AnthropicEngineConfig,
    FakeClock,
    FlakyTransport,
    OpenAIEngineConfig,
    ScriptedTransport,
    SimulatedBackendTransport,
    TerminalTransportError,
    create_engine,
    render_structured_answers,
)
from repro.engines.faults import extract_prompt
from repro.llm.executors import ConcurrentExecutor, SerialExecutor
from repro.llm.simulated import SimulatedLLM

PROMPT = "Q1: do entity A and entity B match? Answer 'A1: Yes' or 'A1: No'."
PROMPTS = [f"Q{i}: do entity A and entity B match? Answer Yes or No." for i in range(12)]


def openai_payload(text, prompt_tokens=20, completion_tokens=7):
    return {
        "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        },
    }


def anthropic_payload(text, input_tokens=20, output_tokens=7):
    return {
        "content": [{"type": "text", "text": text}],
        "usage": {"input_tokens": input_tokens, "output_tokens": output_tokens},
    }


def make_openai(script_or_transport, **config_overrides):
    transport = (
        script_or_transport
        if not isinstance(script_or_transport, list)
        else ScriptedTransport(script_or_transport)
    )
    return create_engine(
        "openai",
        transport=transport,
        clock=FakeClock(),
        api_key="sk-test",
        **config_overrides,
    )


class TestOpenAIDialect:
    def test_request_shape_and_auth(self):
        transport = ScriptedTransport([openai_payload("A1: Yes")])
        engine = make_openai(transport, model="gpt-3.5-03", temperature=0.5, seed=9)
        engine.complete(PROMPT)
        request = transport.requests[0]
        assert request.url == "https://api.openai.com/v1/chat/completions"
        assert request.headers["Authorization"] == "Bearer sk-test"
        assert request.payload["model"] == "gpt-3.5-turbo-0301"
        assert request.payload["messages"] == [{"role": "user", "content": PROMPT}]
        assert request.payload["temperature"] == 0.5
        assert request.payload["seed"] == 9
        assert request.estimated_tokens > 0

    def test_usage_comes_from_provider_counts(self):
        engine = make_openai([openai_payload("A1: Yes", 123, 45)])
        response = engine.complete(PROMPT)
        assert response.text == "A1: Yes"
        assert response.prompt_tokens == 123
        assert response.completion_tokens == 45
        assert engine.usage.num_calls == 1
        assert engine.usage.prompt_tokens == 123
        assert engine.usage.completion_tokens == 45

    def test_missing_usage_falls_back_to_tokenizer(self):
        payload = openai_payload("A1: Yes")
        del payload["usage"]
        engine = make_openai([payload])
        response = engine.complete(PROMPT)
        assert response.prompt_tokens == engine.tokenizer.count(PROMPT)
        assert response.completion_tokens == engine.tokenizer.count("A1: Yes")

    def test_missing_api_key_raises(self):
        engine = create_engine(
            "openai", transport=ScriptedTransport([]), api_key_env="MISSING_TEST_KEY"
        )
        with pytest.raises(RuntimeError, match="MISSING_TEST_KEY"):
            engine.complete(PROMPT)

    def test_compatible_server_needs_no_key(self):
        transport = ScriptedTransport([openai_payload("A1: No")])
        engine = create_engine(
            "openai_compatible",
            transport=transport,
            api_key_env="MISSING_TEST_KEY",
            model="llama2-70b",
        )
        assert engine.complete(PROMPT).text == "A1: No"
        assert "Authorization" not in transport.requests[0].headers
        assert transport.requests[0].payload["model"] == "llama2-70b"


class TestAnthropicDialect:
    def make(self, script, **overrides):
        return create_engine(
            "anthropic",
            transport=ScriptedTransport(script),
            clock=FakeClock(),
            api_key="sk-ant",
            **overrides,
        )

    def test_request_shape_and_auth(self):
        engine = self.make([anthropic_payload("A1: Yes")])
        engine.complete(PROMPT)
        request = engine.transport.inner.requests[0]
        assert request.url == "https://api.anthropic.com/v1/messages"
        assert request.headers["x-api-key"] == "sk-ant"
        assert request.headers["anthropic-version"] == "2023-06-01"
        assert "max_tokens" in request.payload

    def test_usage_from_input_output_tokens(self):
        engine = self.make([anthropic_payload("A1: Yes", 200, 31)])
        response = engine.complete(PROMPT)
        assert (response.prompt_tokens, response.completion_tokens) == (200, 31)

    def test_structured_mode_uses_forced_tool(self):
        document = {"answers": [{"index": 1, "match": True}]}
        payload = {
            "content": [
                {"type": "tool_use", "name": "record_batch_answers", "input": document}
            ],
            "usage": {"input_tokens": 10, "output_tokens": 5},
        }
        engine = self.make([payload], json_schema_mode=True)
        response = engine.complete(PROMPT)
        assert response.text == "A1: Yes"
        request = engine.transport.inner.requests[0]
        assert request.payload["tool_choice"] == {
            "type": "tool",
            "name": "record_batch_answers",
        }
        assert request.payload["tools"][0]["input_schema"] == dict(BATCH_ANSWERS_SCHEMA)


class TestStructuredOutput:
    def test_render_structured_answers(self):
        document = json.dumps(
            {"answers": [{"index": 1, "match": True}, {"index": 2, "match": False}]}
        )
        assert render_structured_answers(document) == "A1: Yes\nA2: No"

    @pytest.mark.parametrize(
        "document",
        ["not json", "{}", '{"answers": [{"index": "one", "match": true}]}'],
    )
    def test_render_rejects_malformed_documents(self, document):
        with pytest.raises(ValueError):
            render_structured_answers(document)

    def test_openai_json_schema_mode_is_transparent(self):
        document = json.dumps({"answers": [{"index": 1, "match": False}]})
        transport = ScriptedTransport([openai_payload(document)])
        engine = make_openai(transport, json_schema_mode=True)
        response = engine.complete(PROMPT)
        # The caller sees canonical answer lines, parseable by the regex oracle.
        assert response.text == "A1: No"
        request = transport.requests[0]
        assert request.payload["response_format"]["type"] == "json_schema"
        assert (
            request.payload["response_format"]["json_schema"]["schema"]
            == dict(BATCH_ANSWERS_SCHEMA)
        )

    def test_structured_complete_returns_raw_document(self):
        document = json.dumps({"answers": [{"index": 1, "match": True}]})
        engine = make_openai([openai_payload(document)])
        response = engine.structured_complete(PROMPT, BATCH_ANSWERS_SCHEMA)
        assert json.loads(response.text) == {"answers": [{"index": 1, "match": True}]}

    def test_structured_complete_unsupported_engine_raises(self):
        engine = create_engine("openai_compatible", transport=ScriptedTransport([]))
        with pytest.raises(NotImplementedError, match="openai_compatible"):
            engine.structured_complete(PROMPT, BATCH_ANSWERS_SCHEMA)

    def test_simulated_engine_has_no_structured_mode(self):
        engine = create_engine("simulated")
        assert not hasattr(engine, "structured_complete")
        assert engine.describe()["supports_json_schema"] is False


class TestSimulatedBackendTransport:
    def test_serves_simulated_completions(self):
        sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        engine = make_openai(SimulatedBackendTransport(sim))
        response = engine.complete(PROMPT)
        assert response.text == sim._generate(PROMPT)

    def test_anthropic_shape(self):
        sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        engine = create_engine(
            "anthropic",
            transport=SimulatedBackendTransport(sim, shape="anthropic"),
            api_key="sk-ant",
        )
        assert engine.complete(PROMPT).text == sim._generate(PROMPT)

    def test_extract_prompt_skips_system_messages(self):
        payload = {
            "messages": [
                {"role": "system", "content": "be terse"},
                {"role": "user", "content": "hello"},
            ]
        }
        assert extract_prompt(payload) == "hello"

    def test_prompt_is_pure_function_of_request(self):
        sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        backend = SimulatedBackendTransport(sim)
        engine = make_openai(backend)
        first = engine.complete(PROMPT)
        second = engine.complete(PROMPT)
        assert first.text == second.text
        assert backend.calls == 2


class TestRetriesAndUsage:
    def test_retry_after_flake_gives_identical_result_and_single_usage_record(self):
        sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        clean = make_openai(SimulatedBackendTransport(sim))
        expected = clean.complete(PROMPT)

        flaky_sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        flaky = make_openai(
            FlakyTransport(SimulatedBackendTransport(flaky_sim), fail_at={1, 2}),
            backoff_base_seconds=1.0,
        )
        response = flaky.complete(PROMPT)
        assert response == expected
        # Two failed attempts, one success — exactly one usage record.
        assert flaky.usage.num_calls == 1
        assert flaky.usage.prompt_tokens == expected.prompt_tokens
        stats = flaky.transport.stats()
        assert stats == {"requests": 1, "attempts": 3, "retries": 2, "failures": 0}

    def test_terminal_failure_records_no_usage(self):
        engine = make_openai([400])
        with pytest.raises(TerminalTransportError):
            engine.complete(PROMPT)
        assert engine.usage.num_calls == 0
        assert engine.usage.total_tokens == 0

    def test_exhausted_retries_record_no_usage(self):
        engine = make_openai([503] * 5, max_attempts=5)
        with pytest.raises(Exception):
            engine.complete(PROMPT)
        assert engine.usage.num_calls == 0

    def test_describe_surfaces_transport_counters(self):
        engine = make_openai(
            [503, openai_payload("A1: Yes")], requests_per_second=100.0
        )
        engine.complete(PROMPT)
        snapshot = engine.describe()
        assert snapshot["transport"]["retries"] == 1
        assert snapshot["transport"]["requests"] == 1
        assert "throttled_requests" in snapshot["transport"]
        assert snapshot["requests"] == 1  # usage-level counter


class TestRetriesNeverDoubleCountUsage:
    """Property: injected 503s change retry counters, never results or usage."""

    def run_engine(self, fail_at, executor):
        sim = SimulatedLLM(model_name="gpt-3.5-03", seed=0)
        transport = FlakyTransport(SimulatedBackendTransport(sim), fail_at=fail_at)
        engine = make_openai(transport, model="gpt-3.5-03", seed=0)
        return engine, engine.complete_many(PROMPTS, executor=executor)

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
    def test_concurrent_dispatch(self, clean_run, fail_at):
        # Under concurrent dispatch the fault hits a nondeterministic request,
        # but responses are a pure function of the prompt, so results and
        # usage still match the clean serial run exactly.
        clean_usage, clean_responses = clean_run
        engine, responses = self.run_engine(fail_at, ConcurrentExecutor(max_workers=4))
        assert responses == clean_responses
        assert engine.usage.num_calls == clean_usage.num_calls
        assert engine.usage.total_tokens == clean_usage.total_tokens
        # Every injected failure was absorbed by a retry (an ordinal past the
        # last send never fires, so compare against what actually hit).
        assert engine.transport.stats()["retries"] == engine.transport.inner.injected_failures
