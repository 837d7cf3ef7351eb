"""``repro.engines`` — the LLM client factory and the HTTP backends behind it.

The subsystem that connects the framework to *real* LLM backends without
giving up the hermetic simulated path tier-1 depends on.  Every backend is
an :class:`~repro.llm.base.LLMClient` built by one factory:

* :mod:`repro.engines.registry` — config dataclasses, :func:`create_engine`
  (the one factory) and environment resolution (``REPRO_ENGINE`` & friends);
  its ``simulated`` backend is :class:`~repro.llm.simulated.SimulatedLLM`;
* :mod:`repro.engines.transport` — retry/backoff, token-bucket rate limiting
  and the urllib transport shared by every HTTP backend;
* :mod:`repro.engines.http` — OpenAI, OpenAI-compatible and Anthropic
  dialects with optional provider-enforced JSON-schema output;
* :mod:`repro.engines.faults` — fake clock and scripted/flaky/simulated
  backend transports for instant, deterministic transport tests.

This package deliberately imports nothing from ``repro.core`` or
``repro.pipeline``; it sits beside :mod:`repro.llm` so the pipeline can pick
engines through configuration without an import cycle.
"""

from repro.engines.faults import (
    FakeClock,
    FlakyTransport,
    ScriptedTransport,
    SimulatedBackendTransport,
)
from repro.engines.http import (
    BATCH_ANSWERS_SCHEMA,
    AnthropicEngine,
    HttpEngine,
    OpenAICompatibleEngine,
    OpenAIEngine,
    render_structured_answers,
)
from repro.engines.registry import (
    DEFAULT_ENGINE,
    AnthropicEngineConfig,
    EngineConfig,
    HttpEngineConfig,
    OpenAICompatibleEngineConfig,
    OpenAIEngineConfig,
    available_engines,
    create_engine,
    engine_config_from_env,
)
from repro.engines.transport import (
    Clock,
    RateLimiter,
    RetryableTransportError,
    RetryingTransport,
    RetryPolicy,
    TerminalTransportError,
    TokenBucket,
    Transport,
    TransportError,
    TransportRequest,
    TransportResponse,
    UrllibTransport,
)

__all__ = [
    "AnthropicEngine",
    "AnthropicEngineConfig",
    "BATCH_ANSWERS_SCHEMA",
    "Clock",
    "DEFAULT_ENGINE",
    "EngineConfig",
    "FakeClock",
    "FlakyTransport",
    "HttpEngine",
    "HttpEngineConfig",
    "OpenAICompatibleEngine",
    "OpenAICompatibleEngineConfig",
    "OpenAIEngine",
    "OpenAIEngineConfig",
    "RateLimiter",
    "RetryPolicy",
    "RetryableTransportError",
    "RetryingTransport",
    "ScriptedTransport",
    "SimulatedBackendTransport",
    "TerminalTransportError",
    "TokenBucket",
    "Transport",
    "TransportError",
    "TransportRequest",
    "TransportResponse",
    "UrllibTransport",
    "available_engines",
    "create_engine",
    "engine_config_from_env",
    "render_structured_answers",
]
