"""HTTP-backed engines: OpenAI, OpenAI-compatible servers, Anthropic.

Each engine owns only its provider dialect — endpoint path, payload shape,
auth header, response/usage parsing — and delegates every operational concern
(retry with backoff, rate limiting, counters) to the shared
:class:`~repro.engines.transport.RetryingTransport` stack.  Token usage is
recorded once per successful round trip from the *provider's* usage payload
(falling back to the approximate tokenizer when a server omits it), so
retries structurally cannot double-count in the
:class:`~repro.llm.base.UsageTracker` and the existing pricing table keeps
working off the logical model name.

Structured output: with ``json_schema_mode`` the engine asks the provider to
emit JSON conforming to :data:`BATCH_ANSWERS_SCHEMA` (OpenAI: a
``response_format`` JSON schema; Anthropic: forced tool use) and
:func:`render_structured_answers` converts the document into the canonical
``A<i>: Yes/No`` lines — the existing regex parser remains the oracle over
the rendered text, so structured mode changes reliability, never semantics.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import TYPE_CHECKING, ClassVar, Mapping

from repro.engines.transport import (
    Clock,
    RateLimiter,
    RetryableTransportError,
    RetryingTransport,
    Transport,
    TransportRequest,
    UrllibTransport,
)
from repro.llm.base import LLMClient, LLMResponse, UsageRecord
from repro.resilience.breaker import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - registry.py imports this module
    from repro.engines.registry import HttpEngineConfig

__all__ = [
    "AnthropicEngine",
    "BATCH_ANSWERS_SCHEMA",
    "HttpEngine",
    "OpenAICompatibleEngine",
    "OpenAIEngine",
    "render_structured_answers",
]

#: JSON schema of a structured batch-answer document: one entry per question,
#: mirroring the ``A<i>: Yes/No`` lines the text protocol asks for.
BATCH_ANSWERS_SCHEMA: Mapping[str, object] = {
    "type": "object",
    "properties": {
        "answers": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "index": {
                        "type": "integer",
                        "minimum": 1,
                        "description": "1-based question number",
                    },
                    "match": {
                        "type": "boolean",
                        "description": "whether the two entities match",
                    },
                },
                "required": ["index", "match"],
                "additionalProperties": False,
            },
        }
    },
    "required": ["answers"],
    "additionalProperties": False,
}


def render_structured_answers(document_text: str) -> str:
    """Render a :data:`BATCH_ANSWERS_SCHEMA` JSON document as answer lines.

    ``{"answers": [{"index": 1, "match": true}, ...]}`` becomes the canonical
    ``A1: Yes`` / ``A2: No`` lines, which both the batch and the standard
    answer parsers already understand — keeping the regex parser the single
    oracle for what an answer *means*.

    Raises:
        ValueError: when the document is not valid JSON of the expected shape
            (callers surface this as an unanswered question, same as any
            unparseable completion).
    """
    try:
        document = json.loads(document_text)
    except json.JSONDecodeError as error:
        raise ValueError(f"structured answers are not valid JSON: {error}") from error
    if not isinstance(document, Mapping) or not isinstance(
        document.get("answers"), list
    ):
        raise ValueError(
            f"structured answers missing 'answers' list: {document_text[:200]!r}"
        )
    lines: list[str] = []
    for entry in document["answers"]:
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("index"), int)
            or not isinstance(entry.get("match"), bool)
        ):
            raise ValueError(f"malformed structured answer entry: {entry!r}")
        lines.append(f"A{entry['index']}: {'Yes' if entry['match'] else 'No'}")
    return "\n".join(lines)


class HttpEngine(LLMClient):
    """Shared plumbing of the HTTP-backed engines.

    Subclasses define the provider dialect through :meth:`build_request` and
    :meth:`parse_response` plus the class-level alias table, auth
    requirements and schema capability; everything else — transport stack
    assembly, usage accounting, structured-mode rendering — lives here.
    Build them through :func:`~repro.engines.registry.create_engine`, which
    validates the logical model name.

    Args:
        config: the engine's :class:`~repro.engines.registry.HttpEngineConfig`
            (or subclass).
        transport: inner transport override — the injection point for the
            scripted/flaky/simulated-backend test transports.  The retry and
            rate-limit stack wraps whatever is injected.
        clock: time source for backoff and rate-limit waits.
        breaker: optional per-engine circuit breaker threaded into the
            retry stack (see :mod:`repro.resilience`).
    """

    #: Whether the backend offers a provider-side JSON-schema output mode.
    supports_json_schema: ClassVar[bool] = False
    #: Logical model name -> provider model identifier.
    model_aliases: ClassVar[Mapping[str, str]] = {}
    #: Whether a missing API key is a configuration error.
    api_key_required: ClassVar[bool] = True

    def __init__(
        self,
        config: HttpEngineConfig,
        transport: Transport | None = None,
        clock: Clock | None = None,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        super().__init__(model_name=config.model)
        self.config = config
        self._clock = clock or Clock()
        limiter = (
            RateLimiter(
                requests_per_second=config.requests_per_second,
                tokens_per_minute=config.tokens_per_minute,
                clock=self._clock,
            )
            if config.requests_per_second is not None
            or config.tokens_per_minute is not None
            else None
        )
        self.transport = RetryingTransport(
            inner=transport or UrllibTransport(timeout=config.timeout_seconds),
            policy=config.retry_policy(),
            limiter=limiter,
            clock=self._clock,
            seed=config.seed,
            breaker=breaker,
        )

    @property
    def provider_model(self) -> str:
        """The model identifier sent on the wire.

        An explicit ``provider_model`` wins; otherwise the logical name is
        translated through the backend's alias table, falling back to the
        logical name itself (the right default for self-hosted servers that
        name models freely).
        """
        if self.config.provider_model is not None:
            return self.config.provider_model
        return self.model_aliases.get(self.model_name, self.model_name)

    def _api_key(self) -> str | None:
        key = self.config.resolve_api_key()
        if key is None and self.api_key_required:
            raise RuntimeError(
                f"engine {self.engine_name!r} needs an API key: set "
                f"{self.config.api_key_env} or pass api_key in the engine config"
            )
        return key

    def build_request(
        self, prompt_text: str, schema: Mapping[str, object] | None = None
    ) -> TransportRequest:
        """Assemble the provider-dialect request for one completion."""
        raise NotImplementedError

    def parse_response(
        self, payload: Mapping[str, object]
    ) -> tuple[str, int | None, int | None]:
        """Extract ``(text, prompt_tokens, completion_tokens)`` from a response.

        Token counts are ``None`` when the provider omitted them; the caller
        falls back to the approximate tokenizer.
        """
        raise NotImplementedError

    def _estimated_tokens(self, prompt_text: str) -> int:
        return self.tokenizer.count(prompt_text) + self.config.max_output_tokens

    def _send(
        self, prompt_text: str, schema: Mapping[str, object] | None = None
    ) -> tuple[str, int | None, int | None]:
        request = self.build_request(prompt_text, schema)
        response = self.transport.send(request)
        return self.parse_response(response.payload)

    def _generate(self, prompt_text: str) -> str:
        text, _, _ = self._send(prompt_text)
        return text

    def _record(
        self, prompt_text: str, text: str, prompt_tokens: int | None, completion_tokens: int | None
    ) -> LLMResponse:
        if prompt_tokens is None:
            prompt_tokens = self.tokenizer.count(prompt_text)
        if completion_tokens is None:
            completion_tokens = self.tokenizer.count(text)
        self.usage.add(
            UsageRecord(
                model=self.model_name,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
            )
        )
        return LLMResponse(
            text=text,
            model=self.model_name,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def complete(self, prompt_text: str) -> LLMResponse:
        """One completion, with usage recorded from the provider's counts.

        Usage is recorded exactly once per *successful* round trip — retries
        happen below this method, inside the transport — so a flaky network
        can never inflate the cost accounting.  In ``json_schema_mode`` the
        provider's JSON document is rendered into canonical answer lines
        before being returned, making structured mode transparent to every
        downstream parser.
        """
        schema = (
            BATCH_ANSWERS_SCHEMA
            if self.config.json_schema_mode and self.supports_json_schema
            else None
        )
        started = time.perf_counter()
        text, prompt_tokens, completion_tokens = self._send(prompt_text, schema)
        response = self._record(prompt_text, text, prompt_tokens, completion_tokens)
        if schema is not None:
            response = replace(response, text=render_structured_answers(response.text))
        if self._completion_observers:
            self._notify_completion(response, time.perf_counter() - started)
        return response

    def structured_complete(
        self, prompt_text: str, schema: Mapping[str, object]
    ) -> LLMResponse:
        """Complete with provider-enforced JSON output (the raw document).

        Raises:
            NotImplementedError: when the backend has no structured mode.
        """
        if not self.supports_json_schema:
            raise NotImplementedError(
                f"engine {self.engine_name!r} does not support JSON-schema output"
            )
        text, prompt_tokens, completion_tokens = self._send(prompt_text, schema)
        return self._record(prompt_text, text, prompt_tokens, completion_tokens)

    def describe(self) -> dict[str, object]:
        snapshot = super().describe()
        snapshot["supports_json_schema"] = self.supports_json_schema
        snapshot["provider_model"] = self.provider_model
        snapshot["base_url"] = self.config.base_url
        snapshot["json_schema_mode"] = self.config.json_schema_mode
        snapshot["transport"] = self.transport.stats()
        return snapshot


class OpenAIEngine(HttpEngine):
    """OpenAI chat-completions backend (``/v1/chat/completions``)."""

    engine_name: ClassVar[str] = "openai"
    supports_json_schema: ClassVar[bool] = True
    model_aliases: ClassVar[Mapping[str, str]] = {
        "gpt-3.5-03": "gpt-3.5-turbo-0301",
        "gpt-3.5-06": "gpt-3.5-turbo-0613",
        "gpt-4": "gpt-4",
    }

    def build_request(
        self, prompt_text: str, schema: Mapping[str, object] | None = None
    ) -> TransportRequest:
        payload: dict[str, object] = {
            "model": self.provider_model,
            "messages": [{"role": "user", "content": prompt_text}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
            "seed": self.config.seed,
        }
        if schema is not None:
            payload["response_format"] = {
                "type": "json_schema",
                "json_schema": {
                    "name": "batch_answers",
                    "schema": dict(schema),
                    "strict": True,
                },
            }
        headers: dict[str, str] = {}
        api_key = self._api_key()
        if api_key is not None:
            headers["Authorization"] = f"Bearer {api_key}"
        return TransportRequest(
            url=f"{self.config.base_url.rstrip('/')}/chat/completions",
            payload=payload,
            headers=headers,
            estimated_tokens=self._estimated_tokens(prompt_text),
        )

    def parse_response(
        self, payload: Mapping[str, object]
    ) -> tuple[str, int | None, int | None]:
        try:
            choices = payload["choices"]
            message = choices[0]["message"]  # type: ignore[index]
            text = message["content"]  # type: ignore[index]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not str")
        except (KeyError, IndexError, TypeError) as error:
            raise RetryableTransportError(
                f"malformed chat completion payload: {error}"
            ) from error
        usage = payload.get("usage")
        prompt_tokens = completion_tokens = None
        if isinstance(usage, Mapping):
            if isinstance(usage.get("prompt_tokens"), int):
                prompt_tokens = usage["prompt_tokens"]
            if isinstance(usage.get("completion_tokens"), int):
                completion_tokens = usage["completion_tokens"]
        return text, prompt_tokens, completion_tokens


class OpenAICompatibleEngine(OpenAIEngine):
    """Any server speaking the OpenAI chat dialect (vLLM, llama.cpp, ...).

    Identical wire protocol; differences are policy: the API key is optional
    (local servers rarely check it), there is no alias table (self-hosted
    model names are free-form, so the logical name passes through unless
    ``provider_model`` overrides it), and structured output is not assumed —
    many compatible servers reject ``response_format`` JSON schemas.
    """

    engine_name: ClassVar[str] = "openai_compatible"
    supports_json_schema: ClassVar[bool] = False
    model_aliases: ClassVar[Mapping[str, str]] = {}
    api_key_required: ClassVar[bool] = False


class AnthropicEngine(HttpEngine):
    """Anthropic messages-API backend (``/v1/messages``).

    Structured output uses forced tool choice: the schema is exposed as the
    input of a single ``record_batch_answers`` tool the model must call, and
    the tool input is returned as the JSON document.
    """

    engine_name: ClassVar[str] = "anthropic"
    supports_json_schema: ClassVar[bool] = True
    #: The paper's models have no Anthropic equivalents; these are
    #: capability-tier stand-ins.
    model_aliases: ClassVar[Mapping[str, str]] = {
        "gpt-3.5-03": "claude-3-5-haiku-latest",
        "gpt-3.5-06": "claude-3-5-haiku-latest",
        "gpt-4": "claude-sonnet-4-20250514",
    }

    _API_VERSION: ClassVar[str] = "2023-06-01"
    _TOOL_NAME: ClassVar[str] = "record_batch_answers"

    def build_request(
        self, prompt_text: str, schema: Mapping[str, object] | None = None
    ) -> TransportRequest:
        payload: dict[str, object] = {
            "model": self.provider_model,
            "max_tokens": self.config.max_output_tokens,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt_text}],
        }
        if schema is not None:
            payload["tools"] = [
                {
                    "name": self._TOOL_NAME,
                    "description": "Record the match/non-match answer for every question.",
                    "input_schema": dict(schema),
                }
            ]
            payload["tool_choice"] = {"type": "tool", "name": self._TOOL_NAME}
        headers = {"anthropic-version": self._API_VERSION}
        api_key = self._api_key()
        if api_key is not None:
            headers["x-api-key"] = api_key
        return TransportRequest(
            url=f"{self.config.base_url.rstrip('/')}/v1/messages",
            payload=payload,
            headers=headers,
            estimated_tokens=self._estimated_tokens(prompt_text),
        )

    def parse_response(
        self, payload: Mapping[str, object]
    ) -> tuple[str, int | None, int | None]:
        content = payload.get("content")
        if not isinstance(content, list):
            raise RetryableTransportError(
                f"malformed messages payload: content is {type(content).__name__}"
            )
        text_parts: list[str] = []
        tool_input: object | None = None
        for block in content:
            if not isinstance(block, Mapping):
                continue
            if block.get("type") == "text" and isinstance(block.get("text"), str):
                text_parts.append(str(block["text"]))
            elif block.get("type") == "tool_use" and block.get("name") == self._TOOL_NAME:
                tool_input = block.get("input")
        if tool_input is not None:
            text = json.dumps(tool_input)
        elif text_parts:
            text = "\n".join(text_parts)
        else:
            raise RetryableTransportError("messages payload has no text or tool content")
        usage = payload.get("usage")
        prompt_tokens = completion_tokens = None
        if isinstance(usage, Mapping):
            if isinstance(usage.get("input_tokens"), int):
                prompt_tokens = usage["input_tokens"]
            if isinstance(usage.get("output_tokens"), int):
                completion_tokens = usage["output_tokens"]
        return text, prompt_tokens, completion_tokens
