"""LLM client interface and usage accounting."""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.text.tokenizer import ApproxTokenizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.llm.executors import ExecutionBackend


@dataclass(frozen=True)
class LLMResponse:
    """One completion returned by an LLM client."""

    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion token count."""
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class UsageRecord:
    """Token usage of a single LLM call."""

    model: str
    prompt_tokens: int
    completion_tokens: int


@dataclass
class UsageTracker:
    """Accumulates token usage across LLM calls (the basis of the API cost).

    Only running totals are kept — constant memory regardless of how many
    calls a long-lived serving session makes.  Recording is thread-safe so
    that concurrent execution backends can share one tracker; totals are
    order-independent sums, which keeps costs deterministic regardless of
    call completion order.
    """

    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _num_calls: int = 0
    _prompt_tokens: int = 0
    _completion_tokens: int = 0

    def add(self, record: UsageRecord) -> None:
        """Record the usage of one call."""
        with self._lock:
            self._num_calls += 1
            self._prompt_tokens += record.prompt_tokens
            self._completion_tokens += record.completion_tokens

    @property
    def num_calls(self) -> int:
        """Number of LLM calls recorded."""
        return self._num_calls

    @property
    def prompt_tokens(self) -> int:
        """Total prompt tokens across all recorded calls."""
        return self._prompt_tokens

    @property
    def completion_tokens(self) -> int:
        """Total completion tokens across all recorded calls."""
        return self._completion_tokens

    @property
    def total_tokens(self) -> int:
        """Total tokens (prompt + completion) across all recorded calls."""
        return self.prompt_tokens + self.completion_tokens

    def add_totals(
        self, num_calls: int, prompt_tokens: int, completion_tokens: int
    ) -> None:
        """Record pre-aggregated usage (e.g. replayed from a run checkpoint).

        The run engine accounts every batch from its response's usage, live
        or replayed from a checkpoint; folding those in through the same
        tracker keeps cost reporting identical whether the tokens were spent
        in this process or a crashed one.
        """
        if min(num_calls, prompt_tokens, completion_tokens) < 0:
            raise ValueError("usage totals must be >= 0")
        with self._lock:
            self._num_calls += num_calls
            self._prompt_tokens += prompt_tokens
            self._completion_tokens += completion_tokens

    def reset(self) -> None:
        """Forget all recorded usage."""
        with self._lock:
            self._num_calls = 0
            self._prompt_tokens = 0
            self._completion_tokens = 0


class LLMClient(ABC):
    """Base class for LLM clients.

    Subclasses implement :meth:`_generate`; the public :meth:`complete` wraps it
    with token counting and usage tracking so that every client, simulated or
    real, is priced identically.  The built-in backends are built by
    :func:`repro.engines.registry.create_engine`.
    """

    #: Backend name: the ``create_engine`` key of the built-in clients, and
    #: the ``engine`` label of the service's LLM latency metric.
    engine_name: ClassVar[str] = "custom"

    def __init__(self, model_name: str, tokenizer: ApproxTokenizer | None = None) -> None:
        self.model_name = model_name
        self.tokenizer = tokenizer or ApproxTokenizer()
        self.usage = UsageTracker()
        self._completion_observers: list[Callable[[LLMResponse, float], None]] = []

    @abstractmethod
    def _generate(self, prompt_text: str) -> str:
        """Produce the completion text for ``prompt_text``."""

    def add_completion_observer(
        self, observer: Callable[["LLMResponse", float], None]
    ) -> None:
        """Register a per-call observer: ``observer(response, seconds)``.

        Observers see every completed call with its wall-clock latency — the
        seam the observability layer uses to record per-engine latency
        histograms and token counters.  Observation must not alter the
        response; with no observers registered the per-call overhead is one
        clock read and a truthiness check.
        """
        self._completion_observers.append(observer)

    def remove_completion_observer(
        self, observer: Callable[["LLMResponse", float], None]
    ) -> None:
        """Unregister a previously added completion observer."""
        self._completion_observers.remove(observer)

    def _notify_completion(self, response: "LLMResponse", seconds: float) -> None:
        """Fan one completed call out to the registered observers."""
        for observer in self._completion_observers:
            observer(response, seconds)

    def complete(self, prompt_text: str) -> LLMResponse:
        """Run one completion and record its token usage."""
        started = time.perf_counter()
        completion_text = self._generate(prompt_text)
        response = LLMResponse(
            text=completion_text,
            model=self.model_name,
            prompt_tokens=self.tokenizer.count(prompt_text),
            completion_tokens=self.tokenizer.count(completion_text),
        )
        self.usage.add(
            UsageRecord(
                model=self.model_name,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
            )
        )
        if self._completion_observers:
            self._notify_completion(response, time.perf_counter() - started)
        return response

    def complete_many(
        self,
        prompt_texts: Sequence[str],
        executor: "ExecutionBackend | None" = None,
    ) -> list[LLMResponse]:
        """Run one completion per prompt and return responses in prompt order.

        The prompts are independent, so an execution backend may dispatch them
        concurrently; results are always aligned with ``prompt_texts`` so
        callers observe the same ordering regardless of the backend.

        Args:
            executor: optional :class:`~repro.llm.executors.ExecutionBackend`;
                ``None`` completes the prompts serially on the calling thread.
        """
        if executor is None:
            return [self.complete(text) for text in prompt_texts]
        return executor.map(self.complete, prompt_texts)

    def reset_usage(self) -> None:
        """Clear the accumulated usage (e.g. between experiment runs)."""
        self.usage.reset()

    def describe(self) -> dict[str, object]:
        """JSON-serializable operational snapshot (the service's ``/stats``).

        HTTP backends extend it with their schema capability and transport
        counters; every other client has no schema mode.
        """
        return {
            "engine": self.engine_name,
            "model": self.model_name,
            "supports_json_schema": False,
            "requests": self.usage.num_calls,
            "prompt_tokens": self.usage.prompt_tokens,
            "completion_tokens": self.usage.completion_tokens,
        }
