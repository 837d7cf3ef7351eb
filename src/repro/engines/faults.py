"""Deterministic fault harness for the engine transport stack.

The transport layer's interesting behaviour — retries, backoff, rate-limit
waits — is all about time and failure, which makes it miserable to test
against real sleeps and real networks.  This module provides the hermetic
stand-ins, in the spirit of :mod:`repro.engine.faults` (``CrashingLLM`` et
al.) one layer down the stack:

* :class:`FakeClock` — virtual monotonic time; ``sleep`` advances it and
  records the request, so a five-retry exponential backoff "runs" in
  microseconds and every wait is assertable;
* :class:`ScriptedTransport` — replays an explicit outcome script (status
  codes, payloads, exceptions), recording each request it sees;
* :class:`FlakyTransport` — wraps a working transport and fails at the k-th
  send(s) with a configurable status, mirroring ``CrashingLLM``'s 1-based
  ``fail_at`` ordinals;
* :class:`SimulatedBackendTransport` — a fake *provider*: answers OpenAI- or
  Anthropic-shaped chat payloads with completions computed by a
  :class:`~repro.llm.simulated.SimulatedLLM` from the request's own prompt.
  Because each response is a pure function of the prompt, retry/parity tests
  hold under concurrent dispatch no matter which request hits a fault.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

from repro.engines.transport import (
    Clock,
    Transport,
    TransportError,
    TransportRequest,
    TransportResponse,
    error_for_status,
)
from repro.llm.simulated import SimulatedLLM

__all__ = [
    "FakeClock",
    "FlakyTransport",
    "ScriptedTransport",
    "SimulatedBackendTransport",
    "extract_prompt",
]


class FakeClock(Clock):
    """Virtual time: ``sleep`` advances the monotonic reading instantly.

    Attributes:
        sleeps: every positive duration passed to :meth:`sleep`, in order —
            the backoff/throttle schedule a test can assert on.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._lock:
            self._now += seconds
            self.sleeps.append(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep (external passage)."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        with self._lock:
            self._now += seconds


#: One scripted outcome: an ``int`` HTTP status (non-2xx → the classified
#: error is raised, 2xx → an empty OK response), a payload mapping (returned
#: as a 200 response), or an exception instance (raised as-is).
ScriptedOutcome = "int | Mapping[str, object] | Exception"


class ScriptedTransport(Transport):
    """Replays an explicit outcome script, recording every request.

    Args:
        script: outcomes consumed one per :meth:`send` — an ``int`` status
            (non-2xx raises its classified :class:`TransportError`; 2xx
            returns an empty OK response), a payload mapping (returned as a
            200 :class:`TransportResponse`), or an exception instance
            (raised as-is).  A send past the end of the script raises
            ``RuntimeError`` — an exhausted script is a test bug.

    Attributes:
        requests: every :class:`TransportRequest` seen, in arrival order.
    """

    def __init__(self, script: Iterable[object]) -> None:
        self._script: list[object] = list(script)
        self._lock = threading.Lock()
        self.requests: list[TransportRequest] = []

    @property
    def calls(self) -> int:
        """Number of sends served so far."""
        with self._lock:
            return len(self.requests)

    def send(self, request: TransportRequest) -> TransportResponse:
        with self._lock:
            self.requests.append(request)
            index = len(self.requests) - 1
            if index >= len(self._script):
                raise RuntimeError(
                    f"ScriptedTransport script exhausted after {len(self._script)} sends"
                )
            outcome = self._script[index]
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, int):
            if 200 <= outcome < 300:
                return TransportResponse(status=outcome, payload={})
            raise error_for_status(outcome, f"scripted HTTP {outcome}")
        if isinstance(outcome, Mapping):
            return TransportResponse(status=200, payload=outcome)
        raise TypeError(
            f"unsupported scripted outcome {outcome!r}; "
            "expected int status, payload mapping, or exception"
        )


class FlakyTransport(Transport):
    """Delegate to ``inner``, failing at the k-th send(s).

    Mirrors :class:`repro.engine.faults.CrashingLLM`: ``fail_at`` holds
    1-based send ordinals (the counter includes the failing sends), so
    ``fail_at={1, 2}`` fails the first two attempts and succeeds from the
    third — exactly the shape retry tests need.

    Args:
        inner: transport used for non-failing sends.
        fail_at: 1-based ordinals of the sends to fail.
        status: HTTP status of the injected failures (classified through
            :func:`~repro.engines.transport.error_for_status`, so 503 is
            retryable and 400 terminal).
    """

    def __init__(
        self, inner: Transport, fail_at: Iterable[int] = (), status: int = 503
    ) -> None:
        self.inner = inner
        self.fail_at = frozenset(int(ordinal) for ordinal in fail_at)
        if any(ordinal < 1 for ordinal in self.fail_at):
            raise ValueError(f"fail_at ordinals are 1-based, got {sorted(self.fail_at)}")
        self.status = status
        self._lock = threading.Lock()
        self._calls = 0
        self._injected = 0

    @property
    def calls(self) -> int:
        """Total sends seen (failing sends included)."""
        with self._lock:
            return self._calls

    @property
    def injected_failures(self) -> int:
        """Number of failures injected so far."""
        with self._lock:
            return self._injected

    def send(self, request: TransportRequest) -> TransportResponse:
        with self._lock:
            self._calls += 1
            ordinal = self._calls
            inject = ordinal in self.fail_at
            if inject:
                self._injected += 1
        if inject:
            raise error_for_status(
                self.status, f"injected HTTP {self.status} at send #{ordinal}"
            )
        return self.inner.send(request)


def extract_prompt(payload: Mapping[str, object]) -> str:
    """Recover the user prompt from an OpenAI- or Anthropic-shaped payload.

    Joins the string contents of non-system chat messages; both provider
    dialects keep the prompt under ``messages[*].content`` (Anthropic may
    nest it as ``[{"type": "text", "text": ...}]`` blocks).
    """
    messages = payload.get("messages")
    if not isinstance(messages, Sequence):
        raise ValueError("payload has no 'messages' list to extract a prompt from")
    parts: list[str] = []
    for message in messages:
        if not isinstance(message, Mapping) or message.get("role") == "system":
            continue
        content = message.get("content")
        if isinstance(content, str):
            parts.append(content)
        elif isinstance(content, Sequence):
            for block in content:
                if isinstance(block, Mapping) and isinstance(block.get("text"), str):
                    parts.append(str(block["text"]))
    if not parts:
        raise ValueError("payload messages contain no user text content")
    return "\n".join(parts)


class SimulatedBackendTransport(Transport):
    """A fake provider endpoint backed by :class:`SimulatedLLM`.

    Serves chat-completion payloads whose text is computed by the simulated
    model *from the request's own prompt* — a pure function, so concurrent
    and retried requests always receive the same answer for the same prompt.
    This is what lets the HTTP engines, the retry stack and concurrent
    dispatch be exercised end to end with zero network and golden-stable
    results.

    Args:
        llm: the behavioural model producing completions (its usage tracker
            is bypassed — the *engine* under test does the accounting from
            the response payload, as it would against a real provider).
        shape: ``"openai"`` (choices/message) or ``"anthropic"``
            (content blocks) response dialect.
    """

    def __init__(self, llm: SimulatedLLM, shape: str = "openai") -> None:
        if shape not in ("openai", "anthropic"):
            raise ValueError(f"shape must be 'openai' or 'anthropic', got {shape!r}")
        self.llm = llm
        self.shape = shape
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def calls(self) -> int:
        """Total sends served."""
        with self._lock:
            return self._calls

    def send(self, request: TransportRequest) -> TransportResponse:
        with self._lock:
            self._calls += 1
        try:
            prompt = extract_prompt(request.payload)
        except ValueError as error:
            raise TransportError(str(error), status=400) from error
        text = self.llm._generate(prompt)  # noqa: SLF001 - the backend *is* the model
        prompt_tokens = self.llm.tokenizer.count(prompt)
        completion_tokens = self.llm.tokenizer.count(text)
        model = str(request.payload.get("model", self.llm.model_name))
        if self.shape == "anthropic":
            payload: Mapping[str, object] = {
                "id": f"msg_{self._calls}",
                "type": "message",
                "model": model,
                "content": [{"type": "text", "text": text}],
                "stop_reason": "end_turn",
                "usage": {
                    "input_tokens": prompt_tokens,
                    "output_tokens": completion_tokens,
                },
            }
        else:
            payload = {
                "id": f"chatcmpl-{self._calls}",
                "object": "chat.completion",
                "model": model,
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "total_tokens": prompt_tokens + completion_tokens,
                },
            }
        return TransportResponse(status=200, payload=payload)
