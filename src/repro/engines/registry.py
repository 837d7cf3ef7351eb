"""The one LLM client factory: backend names, config dataclasses, environment.

Every backend is described by a frozen config dataclass and listed under a
short name; :func:`create_engine` turns either the name (plus field
overrides) or a ready config into a live :class:`~repro.llm.base.LLMClient`.
The four backends:

========================  =====================================================
``simulated``             the hermetic behavioural model (tier-1's backend)
``openai``                OpenAI chat completions (``OPENAI_API_KEY``)
``openai_compatible``     any OpenAI-compatible server via ``base_url``
                          (vLLM, llama.cpp, LM Studio, ...)
``anthropic``             Anthropic messages API (``ANTHROPIC_API_KEY``)
========================  =====================================================

Built from a name, an HTTP backend takes its deployment fields from
environment variables (``REPRO_ENGINE_BASE_URL``, ``REPRO_ENGINE_MODEL``,
``REPRO_ENGINE_RPS``, ``REPRO_ENGINE_TPM``, ...; explicit overrides win), and
``REPRO_ENGINE`` picks the backend when no name is given — so a deployment
swaps providers without touching code, the pattern the related repos use for
their env-switched multi-provider wrappers.

Model naming: the framework keeps reasoning in the paper's *logical* model
names (``gpt-3.5-03``, ``gpt-4``, ...), which drive profiles and the pricing
table.  HTTP configs carry a separate ``provider_model`` — the identifier the
provider's API expects — defaulting through each backend's translation
table, so cost accounting stays comparable across backends while the wire
speaks each provider's dialect.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping

from repro.engines.http import AnthropicEngine, OpenAICompatibleEngine, OpenAIEngine
from repro.engines.transport import Clock, RetryPolicy, Transport
from repro.llm.base import LLMClient
from repro.llm.profiles import available_models
from repro.llm.simulated import SimulatedLLM
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "AnthropicEngineConfig",
    "DEFAULT_ENGINE",
    "EngineConfig",
    "HttpEngineConfig",
    "OpenAICompatibleEngineConfig",
    "OpenAIEngineConfig",
    "available_engines",
    "create_engine",
    "engine_config_from_env",
]

#: Engine used when nothing is configured — the hermetic simulated backend.
DEFAULT_ENGINE = "simulated"


@dataclass(frozen=True)
class EngineConfig:
    """Fields shared by every engine backend, and the simulated backend's config.

    Attributes:
        model: *logical* model name (one of the registered profiles); drives
            pricing and, for the simulated backend, the behavioural profile.
        seed: determinism seed (simulated generation; forwarded to providers
            that accept one).
        temperature: sampling temperature.
    """

    model: str = "gpt-3.5-03"
    seed: int = 0
    temperature: float = 0.01


@dataclass(frozen=True)
class HttpEngineConfig(EngineConfig):
    """Fields shared by the HTTP-backed engines.

    Attributes:
        api_key: explicit API key; when ``None`` the key is read from the
            ``api_key_env`` environment variable at request time.
        api_key_env: environment variable holding the API key.
        base_url: API root (override for proxies and local servers).
        provider_model: model identifier sent on the wire; ``None`` resolves
            through the backend's alias table, falling back to ``model``.
        max_output_tokens: completion-length cap sent to the provider.
        timeout_seconds: per-request socket timeout.
        max_attempts / backoff_*: retry schedule
            (see :class:`~repro.engines.transport.RetryPolicy`).
        requests_per_second / tokens_per_minute: token-bucket rate caps
            (``None`` disables the respective bucket).
        json_schema_mode: request provider-enforced structured output for
            batch answers and render it into the canonical ``A<i>: Yes/No``
            text — the regex parser stays the oracle over the rendered form.
    """

    api_key: str | None = None
    api_key_env: str = "OPENAI_API_KEY"
    base_url: str = "https://api.openai.com/v1"
    provider_model: str | None = None
    max_output_tokens: int = 1024
    timeout_seconds: float = 60.0
    max_attempts: int = 5
    backoff_base_seconds: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 30.0
    backoff_jitter: float = 0.25
    requests_per_second: float | None = None
    tokens_per_minute: float | None = None
    json_schema_mode: bool = False

    def retry_policy(self) -> RetryPolicy:
        """The transport retry schedule these fields describe."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.backoff_base_seconds,
            multiplier=self.backoff_multiplier,
            max_delay=self.backoff_max_seconds,
            jitter=self.backoff_jitter,
        )

    def resolve_api_key(self, env: Mapping[str, str] | None = None) -> str | None:
        """The explicit key, or the one in ``api_key_env`` (``None`` if unset)."""
        if self.api_key is not None:
            return self.api_key
        return (env if env is not None else os.environ).get(self.api_key_env)


@dataclass(frozen=True)
class OpenAIEngineConfig(HttpEngineConfig):
    """OpenAI chat-completions backend configuration."""


@dataclass(frozen=True)
class OpenAICompatibleEngineConfig(HttpEngineConfig):
    """Any OpenAI-compatible server (vLLM, llama.cpp, LM Studio, proxies).

    The key is optional — local servers usually accept any bearer token —
    and ``base_url`` points at the local endpoint by default.
    """

    base_url: str = "http://localhost:8000/v1"


@dataclass(frozen=True)
class AnthropicEngineConfig(HttpEngineConfig):
    """Anthropic messages-API backend configuration."""

    api_key_env: str = "ANTHROPIC_API_KEY"
    base_url: str = "https://api.anthropic.com"


#: Backend name -> (config dataclass, client class).  A ready config's type
#: selects its backend, so each backend has a config class of its own.
_ENGINES: Mapping[str, tuple[type[EngineConfig], type[LLMClient]]] = {
    "simulated": (EngineConfig, SimulatedLLM),
    "openai": (OpenAIEngineConfig, OpenAIEngine),
    "openai_compatible": (OpenAICompatibleEngineConfig, OpenAICompatibleEngine),
    "anthropic": (AnthropicEngineConfig, AnthropicEngine),
}

#: Environment variable -> (HTTP config field, parser).
_ENV_FIELDS: Mapping[str, tuple[str, Callable[[str], object]]] = {
    "REPRO_ENGINE_MODEL": ("provider_model", str),
    "REPRO_ENGINE_BASE_URL": ("base_url", str),
    "REPRO_ENGINE_RPS": ("requests_per_second", float),
    "REPRO_ENGINE_TPM": ("tokens_per_minute", float),
    "REPRO_ENGINE_MAX_ATTEMPTS": ("max_attempts", int),
    "REPRO_ENGINE_TIMEOUT": ("timeout_seconds", float),
    "REPRO_ENGINE_JSON_SCHEMA": (
        "json_schema_mode",
        lambda value: value.strip().lower() in ("1", "true", "yes", "on"),
    ),
}


def available_engines() -> tuple[str, ...]:
    """Names of all engine backends, sorted."""
    return tuple(sorted(_ENGINES))


def _check_overrides(
    name: str, config_cls: type[EngineConfig], overrides: Mapping[str, object]
) -> None:
    known_fields = {config_field.name for config_field in fields(config_cls)}
    unknown = set(overrides) - known_fields
    if unknown:
        raise ValueError(
            f"unknown {name!r} engine config fields {sorted(unknown)}; "
            f"expected a subset of {sorted(known_fields)}"
        )


def engine_config_from_env(
    env: Mapping[str, str] | None = None,
    engine: str | None = None,
    **overrides: object,
) -> EngineConfig:
    """Resolve an engine configuration: defaults, then environment, then overrides.

    ``engine`` names the backend; when it is ``None``, ``REPRO_ENGINE`` picks
    it (default ``"simulated"``).  An HTTP backend's fields are then read from
    these variables (all optional):

    * ``REPRO_ENGINE_MODEL`` — provider model identifier override;
    * ``REPRO_ENGINE_BASE_URL`` — API root override (local servers, proxies);
    * ``REPRO_ENGINE_RPS`` / ``REPRO_ENGINE_TPM`` — rate caps;
    * ``REPRO_ENGINE_MAX_ATTEMPTS`` — retry budget;
    * ``REPRO_ENGINE_TIMEOUT`` — per-request timeout in seconds;
    * ``REPRO_ENGINE_JSON_SCHEMA`` — ``1``/``true`` enables structured mode.

    API keys are *not* copied into the config: engines read ``api_key_env``
    (``OPENAI_API_KEY`` / ``ANTHROPIC_API_KEY``) at request time, so configs
    stay safe to log and serialize.

    Args:
        env: the environment to read (default ``os.environ``).

    Raises:
        ValueError: for unknown engines or override fields (same error type
            as :class:`~repro.core.config.BatcherConfig`'s checks, so
            misconfiguration fails uniformly).
    """
    environment = os.environ if env is None else env
    name = engine if engine is not None else environment.get("REPRO_ENGINE", DEFAULT_ENGINE)
    key = name.strip().lower()
    if key not in _ENGINES:
        known = ", ".join(available_engines())
        raise ValueError(f"unknown engine {name!r}; expected one of: {known}")
    config_cls = _ENGINES[key][0]
    _check_overrides(key, config_cls, overrides)
    resolved: dict[str, object] = {}
    if issubclass(config_cls, HttpEngineConfig):
        for variable, (field_name, parse) in _ENV_FIELDS.items():
            if environment.get(variable):
                resolved[field_name] = parse(environment[variable])
    resolved.update(overrides)
    return config_cls(**resolved)  # type: ignore[arg-type]


def create_engine(
    engine: str | EngineConfig | None = None,
    *,
    transport: Transport | None = None,
    clock: Clock | None = None,
    breaker: CircuitBreaker | None = None,
    **overrides: object,
) -> LLMClient:
    """Build a live LLM client — the one factory every call site uses.

    Args:
        engine: backend name (``"simulated"``, ``"openai"``, ...), an
            :class:`EngineConfig` instance (its type selects the backend and
            the environment is not read), or ``None`` for the backend
            ``REPRO_ENGINE`` names (see :func:`engine_config_from_env`).
        transport: optional transport injection (HTTP backends only) — the
            hook the scripted/flaky test transports use.
        clock: optional time source for the backend's retry/rate-limit stack.
        breaker: optional per-engine circuit breaker gating the backend
            (HTTP backends only; see :mod:`repro.resilience`).
        **overrides: config field overrides, applied over the defaults and
            the environment (or over the given config instance).

    Raises:
        ValueError: for unknown engines, unknown override fields, an unknown
            logical model, or a transport/breaker given to the simulated
            backend.
    """
    if isinstance(engine, EngineConfig):
        name = next(
            (key for key, (cls, _) in _ENGINES.items() if cls is type(engine)),
            type(engine).__name__,
        )
        _check_overrides(name, type(engine), overrides)
        config = replace(engine, **overrides)
    else:
        config = engine_config_from_env(engine=engine, **overrides)
    model = config.model.strip().lower()
    if model not in available_models():
        known = ", ".join(available_models())
        raise ValueError(f"unknown model {config.model!r}; expected one of: {known}")
    config = replace(config, model=model)
    for config_cls, client_cls in _ENGINES.values():
        if type(config) is config_cls:
            break
    else:
        raise ValueError(f"no engine registered for config type {type(config).__name__!r}")
    if client_cls is SimulatedLLM:
        if transport is not None or breaker is not None:
            raise ValueError("the simulated engine has no transport to inject or gate")
        return SimulatedLLM(model_name=model, seed=config.seed, temperature=config.temperature)
    return client_cls(config, transport=transport, clock=clock, breaker=breaker)  # type: ignore[call-arg]
