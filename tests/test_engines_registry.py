"""Engine factory tests: configs, ``create_engine``, env resolution, the simulated backend."""

import json
import time

import pytest

from repro.core.config import BatcherConfig
from repro.engines import (
    AnthropicEngine,
    AnthropicEngineConfig,
    EngineConfig,
    OpenAICompatibleEngine,
    OpenAIEngine,
    OpenAIEngineConfig,
    available_engines,
    create_engine,
    engine_config_from_env,
)
from repro.llm.base import LLMClient
from repro.llm.simulated import SimulatedLLM
from repro.pipeline import Resolver


class TestRegistry:
    def test_available_engines(self):
        assert available_engines() == (
            "anthropic",
            "openai",
            "openai_compatible",
            "simulated",
        )

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine.*expected one of"):
            create_engine("bedrock")

    def test_unknown_config_field_raises(self):
        with pytest.raises(ValueError, match="unknown 'simulated' engine config fields"):
            create_engine("simulated", base_url="http://x")

    @pytest.mark.parametrize(
        ("name", "engine_cls"),
        [
            ("simulated", SimulatedLLM),
            ("openai", OpenAIEngine),
            ("openai_compatible", OpenAICompatibleEngine),
            ("anthropic", AnthropicEngine),
        ],
    )
    def test_create_engine_builds_offline(self, name, engine_cls):
        # Construction must never touch the network; only sends do.
        engine = create_engine(name, model="gpt-3.5-03", seed=1)
        assert type(engine) is engine_cls
        assert isinstance(engine, LLMClient)
        assert engine.engine_name == name
        assert engine.model_name == "gpt-3.5-03"

    def test_create_engine_from_config_instance(self):
        config = OpenAIEngineConfig(model="gpt-4", provider_model="gpt-4-turbo")
        engine = create_engine(config)
        assert isinstance(engine, OpenAIEngine)
        assert engine.provider_model == "gpt-4-turbo"
        # Overrides apply on top of the given config.
        patched = create_engine(config, provider_model="gpt-4o")
        assert patched.provider_model == "gpt-4o"

    @pytest.mark.parametrize(
        ("config", "name"),
        [(OpenAIEngineConfig(), "openai"), (EngineConfig(), "simulated")],
    )
    def test_unknown_override_of_a_config_instance_raises_like_by_name(
        self, config, name
    ):
        # The same ValueError, naming the known fields, as the by-name path.
        with pytest.raises(ValueError) as by_name:
            create_engine(name, foo=1)
        with pytest.raises(ValueError) as by_config:
            create_engine(config, foo=1)
        assert str(by_config.value) == str(by_name.value)
        assert "expected a subset of" in str(by_config.value)

    def test_simulated_backend_config_is_the_base_config(self):
        engine = create_engine(EngineConfig(model="gpt-4", seed=5))
        assert type(engine) is SimulatedLLM
        assert (engine.model_name, engine.seed) == ("gpt-4", 5)

    def test_simulated_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model.*expected one of"):
            create_engine("simulated", model="claude-opus")

    @pytest.mark.parametrize("name", ["openai", "openai_compatible", "anthropic"])
    def test_http_unknown_model_raises(self, name):
        with pytest.raises(ValueError, match="unknown model.*expected one of"):
            create_engine(name, model="claude-opus")

    def test_model_name_is_normalised(self):
        assert create_engine("simulated", model=" GPT-4 ").model_name == "gpt-4"
        engine = create_engine("openai", model="GPT-3.5-03")
        assert engine.model_name == "gpt-3.5-03"
        assert engine.provider_model == "gpt-3.5-turbo-0301"

    def test_simulated_backend_rejects_a_transport(self):
        from repro.engines.faults import ScriptedTransport

        with pytest.raises(ValueError, match="no transport"):
            create_engine("simulated", transport=ScriptedTransport([]))

    def test_simulated_engine_is_byte_identical_to_simulated_llm(self):
        prompts = [f"Q{i}: are these the same entity? Answer Yes or No." for i in range(8)]
        raw = SimulatedLLM(model_name="gpt-3.5-06", seed=11, temperature=0.01)
        engine = create_engine("simulated", model="gpt-3.5-06", seed=11, temperature=0.01)
        for prompt in prompts:
            assert engine.complete(prompt) == raw.complete(prompt)
        assert engine.usage.num_calls == raw.usage.num_calls
        assert engine.usage.prompt_tokens == raw.usage.prompt_tokens
        assert engine.usage.completion_tokens == raw.usage.completion_tokens

    def test_capability_flags(self):
        assert create_engine("simulated").describe()["supports_json_schema"] is False
        assert create_engine("openai").supports_json_schema
        assert not create_engine("openai_compatible").supports_json_schema
        assert create_engine("anthropic").supports_json_schema

    def test_describe_is_json_serializable(self):
        snapshot = create_engine("openai", model="gpt-4").describe()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["engine"] == "openai"
        assert snapshot["supports_json_schema"] is True
        assert snapshot["provider_model"] == "gpt-4"


class TestSimulatedLatency:
    PROMPT = (
        "Q1: Entity A: [name: ale] Entity B: [name: ale]\n"
        "Answer each question with 'A<i>: Yes' or 'A<i>: No'."
    )

    def test_latency_is_slept_and_leaves_the_completion_unchanged(self):
        instant = create_engine("simulated", seed=2)
        slow = create_engine("simulated", seed=2)
        assert slow.latency_seconds == 0.0
        slow.latency_seconds = 0.05
        started = time.perf_counter()
        response = slow.complete(self.PROMPT)
        assert time.perf_counter() - started >= 0.05
        assert response == instant.complete(self.PROMPT)
        assert (slow.usage.prompt_tokens, slow.usage.completion_tokens) == (
            instant.usage.prompt_tokens,
            instant.usage.completion_tokens,
        )


class TestProviderModelResolution:
    def test_openai_alias_table(self):
        assert create_engine("openai", model="gpt-3.5-03").provider_model == (
            "gpt-3.5-turbo-0301"
        )

    def test_compatible_passes_logical_name_through(self):
        engine = create_engine("openai_compatible", model="llama2-70b")
        assert engine.provider_model == "llama2-70b"

    def test_explicit_provider_model_wins(self):
        engine = create_engine("openai", model="gpt-3.5-03", provider_model="gpt-4o-mini")
        assert engine.provider_model == "gpt-4o-mini"


class TestEnvResolution:
    def test_defaults_to_simulated(self):
        config = engine_config_from_env(env={})
        assert type(config) is EngineConfig
        assert type(create_engine()) is SimulatedLLM

    def test_selects_and_tunes_http_backend(self):
        env = {
            "REPRO_ENGINE": "openai_compatible",
            "REPRO_ENGINE_BASE_URL": "http://localhost:1234/v1",
            "REPRO_ENGINE_MODEL": "my-local-model",
            "REPRO_ENGINE_RPS": "4",
            "REPRO_ENGINE_TPM": "90000",
            "REPRO_ENGINE_MAX_ATTEMPTS": "7",
            "REPRO_ENGINE_TIMEOUT": "12.5",
            "REPRO_ENGINE_JSON_SCHEMA": "true",
        }
        config = engine_config_from_env(env=env)
        assert config.base_url == "http://localhost:1234/v1"
        assert config.provider_model == "my-local-model"
        assert config.requests_per_second == 4.0
        assert config.tokens_per_minute == 90000.0
        assert config.max_attempts == 7
        assert config.timeout_seconds == 12.5
        assert config.json_schema_mode is True

    def test_anthropic_key_env_default(self):
        env = {"REPRO_ENGINE": "anthropic"}
        config = engine_config_from_env(env=env)
        assert isinstance(config, AnthropicEngineConfig)
        assert config.api_key_env == "ANTHROPIC_API_KEY"
        assert config.resolve_api_key({"ANTHROPIC_API_KEY": "sk-a"}) == "sk-a"
        assert config.resolve_api_key({}) is None

    def test_explicit_overrides_beat_env(self):
        env = {"REPRO_ENGINE": "openai", "REPRO_ENGINE_MODEL": "from-env"}
        config = engine_config_from_env(env=env, provider_model="explicit")
        assert config.provider_model == "explicit"

    def test_unknown_env_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            engine_config_from_env(env={"REPRO_ENGINE": "palm"})

    def test_a_given_name_beats_repro_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "anthropic")
        assert type(create_engine("openai")) is OpenAIEngine
        assert type(create_engine()) is AnthropicEngine

    def test_named_http_backend_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODEL", "from-env")
        monkeypatch.setenv("REPRO_ENGINE_TIMEOUT", "9")
        engine = create_engine("openai", provider_model="explicit")
        assert engine.provider_model == "explicit"
        assert engine.config.timeout_seconds == 9.0

    def test_a_ready_config_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BASE_URL", "http://from-env/v1")
        engine = create_engine(OpenAIEngineConfig())
        assert engine.config.base_url == "https://api.openai.com/v1"

    def test_environment_reaches_the_pipeline_client(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODEL", "llama-3.1-8b-instruct")
        monkeypatch.setenv("REPRO_ENGINE_RPS", "8")
        monkeypatch.setenv("REPRO_ENGINE_BASE_URL", "http://10.0.0.5:9000/v1")
        llm = Resolver(BatcherConfig(engine="openai_compatible"), attributes=("name",)).llm
        assert isinstance(llm, OpenAICompatibleEngine)
        request = llm.build_request("Q1: same entity?")
        assert request.url == "http://10.0.0.5:9000/v1/chat/completions"
        assert request.payload["model"] == "llama-3.1-8b-instruct"
        assert llm.config.requests_per_second == 8.0
        assert llm.transport.limiter is not None


class TestFactoryDefaults:
    def test_default_is_simulated_llm(self):
        llm = create_engine(model="gpt-4", seed=3)
        assert type(llm) is SimulatedLLM
        assert (llm.model_name, llm.seed) == ("gpt-4", 3)

    def test_unknown_model_message_unchanged(self):
        with pytest.raises(
            ValueError,
            match=(
                r"unknown model 'claude-opus'; expected one of: "
                r"gpt-3\.5-03, gpt-3\.5-06, gpt-4, llama2-70b"
            ),
        ):
            create_engine("simulated", model="claude-opus")


class TestBatcherConfigEngineField:
    def test_default_round_trips(self):
        config = BatcherConfig()
        assert config.engine == "simulated"
        assert BatcherConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["engine"] == "simulated"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            BatcherConfig(engine="palm")

    def test_accepts_registered_engines(self):
        for name in available_engines():
            assert BatcherConfig(engine=name).engine == name
