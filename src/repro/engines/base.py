"""The :class:`Engine` interface: an LLM client the registry can build.

An engine *is* an :class:`~repro.llm.base.LLMClient` — every existing caller
(pipeline, resolver, service, run engine) works unchanged — plus the surface
the registry and the service need:

* capability flags (``supports_json_schema``, ``requires_network``) that let
  callers pick features without isinstance checks against concrete backends;
* :meth:`Engine.structured_complete` for provider JSON-schema output modes
  (terminal ``NotImplementedError`` on engines without the capability);
* :meth:`Engine.describe`, the JSON-serializable operational snapshot the
  service surfaces under ``/stats``.

Concurrent dispatch is the executor's job, not the engine's: a
:class:`~repro.llm.executors.ConcurrentExecutor` calls ``complete`` from its
worker threads, which suits the blocking urllib transport.
"""

from __future__ import annotations

from typing import ClassVar, Mapping

from repro.llm.base import LLMClient, LLMResponse

__all__ = ["Engine"]


class Engine(LLMClient):
    """Base class of all registered LLM engines.

    Subclasses set :attr:`engine_name` (the registry key) and the capability
    flags as class attributes, and implement the usual
    :meth:`~repro.llm.base.LLMClient._generate` / ``complete`` contract.
    Usage accounting is inherited from :class:`LLMClient` unchanged, so every
    engine — simulated or HTTP-backed — folds into the same
    :class:`~repro.llm.base.UsageTracker` / :class:`~repro.cost.tracker.
    CostTracker` pricing path.
    """

    #: Registry key of this engine ("simulated", "openai", ...).
    engine_name: ClassVar[str] = "engine"
    #: Whether the backend offers a provider-side JSON-schema output mode.
    supports_json_schema: ClassVar[bool] = False
    #: Whether completions leave the process (False = hermetic, CI-safe).
    requires_network: ClassVar[bool] = False

    def structured_complete(
        self, prompt_text: str, schema: Mapping[str, object]
    ) -> LLMResponse:
        """Complete with a provider-enforced JSON schema on the output.

        Only available when :attr:`supports_json_schema` is true; the
        response text is then the schema-conforming JSON document.

        Raises:
            NotImplementedError: when the backend has no structured mode.
        """
        raise NotImplementedError(
            f"engine {self.engine_name!r} does not support JSON-schema output"
        )

    def describe(self) -> dict[str, object]:
        """JSON-serializable operational snapshot (for service ``/stats``).

        Subclasses with a transport extend this with retry / rate-limit
        counters; the base snapshot is capabilities plus cumulative usage.
        """
        return {
            "engine": self.engine_name,
            "model": self.model_name,
            "supports_json_schema": self.supports_json_schema,
            "requires_network": self.requires_network,
            "requests": self.usage.num_calls,
            "prompt_tokens": self.usage.prompt_tokens,
            "completion_tokens": self.usage.completion_tokens,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(model={self.model_name!r})"
