"""Shared HTTP transport substrate for the real-LLM engines.

Every HTTP-backed engine sends requests through the same small stack:

``engine → RetryingTransport → (rate limiter, backoff) → inner Transport``

The split keeps the provider-specific parts (URL, payload shape, response
parsing) in the engines and everything operational — retry classification,
exponential backoff with jitter, token-bucket rate limiting, counters — in
one place, where it can be tested hermetically against scripted transports
and a fake clock (:mod:`repro.engines.faults`).

Error classification follows the providers' documented semantics: 429 and
5xx responses (and timeouts / connection drops) are *retryable*; any other
4xx is *terminal* — retrying a malformed request or a bad API key only burns
the rate budget.  Time is always read through an injectable clock, so the
retry and rate-limit logic runs instantly and deterministically under test.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.deadline import DeadlineExceeded, current_deadline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import Tracer

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Clock",
    "DeadlineExceeded",
    "RateLimiter",
    "RetryPolicy",
    "RetryingTransport",
    "RetryableTransportError",
    "TerminalTransportError",
    "TokenBucket",
    "Transport",
    "TransportError",
    "TransportRequest",
    "TransportResponse",
    "UrllibTransport",
    "error_for_status",
    "is_retryable_status",
    "retry_reason",
]

#: 4xx statuses that are worth retrying despite being client errors:
#: 408 (request timeout), 409 (conflict, used by some gateways for transient
#: contention) and 429 (rate limited).
_RETRYABLE_4XX = frozenset({408, 409, 429})


class Clock:
    """Injectable time source: ``monotonic`` + ``sleep``.

    The default implementation delegates to :mod:`time`; tests substitute
    :class:`repro.engines.faults.FakeClock` so backoff and rate-limit waits
    advance virtual time instead of blocking.
    """

    def monotonic(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (no-op for non-positive values)."""
        if seconds > 0:
            time.sleep(seconds)


class TransportError(RuntimeError):
    """A failed transport send.

    Attributes:
        status: HTTP status code when the failure came from a response
            (``None`` for connection-level failures).
        retryable: whether the retry layer may attempt the request again.
        reason: optional explicit retry-reason label (e.g. ``"timeout"``);
            when ``None``, :func:`retry_reason` derives one from ``status``.
    """

    retryable: bool = False

    def __init__(
        self, message: str, status: int | None = None, reason: str | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason


class RetryableTransportError(TransportError):
    """A transient failure (429 / 5xx / timeout): safe to retry with backoff."""

    retryable = True


class TerminalTransportError(TransportError):
    """A permanent failure (other 4xx): retrying cannot succeed."""

    retryable = False


def is_retryable_status(status: int) -> bool:
    """Whether an HTTP status code denotes a transient failure."""
    return status >= 500 or status in _RETRYABLE_4XX


def error_for_status(status: int, message: str) -> TransportError:
    """Build the classified :class:`TransportError` for a failure status."""
    if is_retryable_status(status):
        return RetryableTransportError(message, status=status)
    return TerminalTransportError(message, status=status)


@dataclass(frozen=True)
class TransportRequest:
    """One JSON-over-HTTP request an engine wants delivered.

    Attributes:
        url: absolute endpoint URL.
        payload: JSON body (serialized by the transport).
        headers: HTTP headers, including authentication.
        estimated_tokens: the engine's token estimate for this call, used by
            the tokens-per-minute bucket of the rate limiter (0 = skip the
            token bucket for this request).
    """

    url: str
    payload: Mapping[str, object]
    headers: Mapping[str, str] = field(default_factory=dict)
    estimated_tokens: int = 0


@dataclass(frozen=True)
class TransportResponse:
    """A successful (2xx) transport response with its decoded JSON payload."""

    status: int
    payload: Mapping[str, object]


class Transport(ABC):
    """Delivers one request and returns the decoded response.

    Implementations raise a classified :class:`TransportError` on failure —
    never a bare urllib/socket exception — so the retry layer can decide
    whether to try again without knowing how the bytes moved.
    """

    @abstractmethod
    def send(self, request: TransportRequest) -> TransportResponse:
        """Deliver ``request``; raise :class:`TransportError` on failure."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class UrllibTransport(Transport):
    """Real HTTP delivery over :mod:`urllib` (stdlib only, no extra deps).

    Args:
        timeout: per-request socket timeout in seconds; timeouts surface as
            :class:`RetryableTransportError`.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout

    def send(self, request: TransportRequest) -> TransportResponse:
        import urllib.error
        import urllib.request

        body = json.dumps(dict(request.payload)).encode("utf-8")
        headers = {"Content-Type": "application/json", **request.headers}
        http_request = urllib.request.Request(
            request.url, data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                raw = response.read().decode("utf-8")
                status = response.status
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                detail = error.read().decode("utf-8", errors="replace")[:200]
            except Exception:  # noqa: BLE001 - diagnostics only
                pass
            raise error_for_status(
                error.code, f"HTTP {error.code} from {request.url}: {detail}"
            ) from error
        except (urllib.error.URLError, TimeoutError, OSError) as error:
            # socket.timeout is a TimeoutError alias since 3.10, but urllib
            # often wraps it inside URLError.reason — unwrap so a stalled
            # backend is labeled "timeout" (deadline/stall territory) rather
            # than blending into the generic "connection" family.
            cause = getattr(error, "reason", error)
            if isinstance(cause, (TimeoutError, socket.timeout)):
                raise RetryableTransportError(
                    f"timeout after {self.timeout}s talking to {request.url}: {error}",
                    reason="timeout",
                ) from error
            raise RetryableTransportError(
                f"connection failure to {request.url}: {error}"
            ) from error
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise RetryableTransportError(
                f"non-JSON response from {request.url}: {raw[:200]!r}"
            ) from error
        return TransportResponse(status=status, payload=payload)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with symmetric jitter.

    Attributes:
        max_attempts: total send attempts (first try included); must be >= 1.
        base_delay: delay before the first retry, in seconds.
        multiplier: per-retry delay growth factor.
        max_delay: ceiling on a single delay, in seconds.
        jitter: relative jitter amplitude in ``[0, 1]`` — the delay is scaled
            by a uniform factor in ``[1 - jitter, 1 + jitter]`` so that a
            fleet of workers rate-limited at the same instant does not retry
            in lockstep.
    """

    max_attempts: int = 5
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """Delay before the ``retry_index``-th retry (0-based), jittered."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


class TokenBucket:
    """Classic token-bucket limiter with an injectable clock.

    The bucket refills continuously at ``rate`` units per second up to
    ``capacity``.  :meth:`reserve` debits the bucket immediately and returns
    how long the caller must wait before proceeding — debiting first (the
    balance may go negative) means concurrent reservers are serialized
    fairly: each sees the debt left by the previous one.

    Args:
        rate: refill rate in units per second (> 0).
        capacity: maximum stored units (>= the largest single reservation
            that should pass without waiting).
        clock: time source (defaults to the system clock).
    """

    def __init__(self, rate: float, capacity: float, clock: Clock | None = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.rate = rate
        self.capacity = capacity
        self._clock = clock or Clock()
        self._lock = threading.Lock()
        self._level = capacity
        self._updated_at = self._clock.monotonic()

    def reserve(self, amount: float) -> float:
        """Debit ``amount`` units; return seconds to wait before proceeding."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        if amount == 0:
            return 0.0
        with self._lock:
            now = self._clock.monotonic()
            self._level = min(
                self.capacity, self._level + (now - self._updated_at) * self.rate
            )
            self._updated_at = now
            self._level -= amount
            if self._level >= 0:
                return 0.0
            return -self._level / self.rate

    def try_reserve(self, amount: float) -> float:
        """Debit ``amount`` only if the bucket can afford it right now.

        Returns ``0.0`` on success (the units were debited) or the seconds
        until the reservation would be affordable (nothing debited).  Unlike
        :meth:`reserve`, a refusal leaves the bucket untouched, which is the
        admission-control contract: a rejected request must not push the
        bucket into debt and penalize later, well-behaved callers.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        if amount == 0:
            return 0.0
        with self._lock:
            now = self._clock.monotonic()
            self._level = min(
                self.capacity, self._level + (now - self._updated_at) * self.rate
            )
            self._updated_at = now
            if self._level >= amount:
                self._level -= amount
                return 0.0
            return (amount - self._level) / self.rate

    @property
    def level(self) -> float:
        """Current (possibly negative) stored units, without refilling."""
        with self._lock:
            return self._level


class RateLimiter:
    """Combined requests-per-second and tokens-per-minute throttle.

    Args:
        requests_per_second: request-rate cap (``None`` disables the bucket).
        tokens_per_minute: token-rate cap (``None`` disables the bucket);
            compared against :attr:`TransportRequest.estimated_tokens`.
        clock: time source shared by both buckets; waits go through
            ``clock.sleep`` so a fake clock makes throttling instantaneous.
        burst_seconds: bucket capacity expressed in seconds of rate — e.g.
            2.0 lets two seconds' worth of requests go through back to back
            before throttling kicks in.
    """

    def __init__(
        self,
        requests_per_second: float | None = None,
        tokens_per_minute: float | None = None,
        clock: Clock | None = None,
        burst_seconds: float = 1.0,
    ) -> None:
        if burst_seconds <= 0:
            raise ValueError(f"burst_seconds must be > 0, got {burst_seconds}")
        self._clock = clock or Clock()
        self._request_bucket = (
            TokenBucket(
                requests_per_second,
                capacity=max(1.0, requests_per_second * burst_seconds),
                clock=self._clock,
            )
            if requests_per_second is not None
            else None
        )
        tokens_per_second = (
            tokens_per_minute / 60.0 if tokens_per_minute is not None else None
        )
        self._token_bucket = (
            TokenBucket(
                tokens_per_second,
                capacity=max(1.0, tokens_per_minute),
                clock=self._clock,
            )
            if tokens_per_second is not None
            else None
        )
        self._lock = threading.Lock()
        self._throttled = 0
        self._waited_seconds = 0.0

    def throttle(self, estimated_tokens: int = 0) -> float:
        """Admit one request, sleeping as required; returns seconds waited."""
        wait = 0.0
        if self._request_bucket is not None:
            wait = max(wait, self._request_bucket.reserve(1.0))
        if self._token_bucket is not None and estimated_tokens > 0:
            wait = max(wait, self._token_bucket.reserve(float(estimated_tokens)))
        if wait > 0:
            with self._lock:
                self._throttled += 1
                self._waited_seconds += wait
            self._clock.sleep(wait)
        return wait

    @property
    def throttled_requests(self) -> int:
        """Requests that had to wait on a bucket."""
        with self._lock:
            return self._throttled

    @property
    def waited_seconds(self) -> float:
        """Cumulative seconds spent waiting on the buckets."""
        with self._lock:
            return self._waited_seconds


def retry_reason(error: TransportError) -> str:
    """Coarse, low-cardinality label for why a send attempt failed.

    Used both as the retry-metric label and as the span tag, so a 429 storm
    is distinguishable from a flapping backend at a glance.
    """
    if error.reason is not None:
        return error.reason
    if error.status is None:
        return "connection"
    if error.status == 429:
        return "429"
    if error.status >= 500:
        return "5xx"
    return str(error.status)


class RetryingTransport(Transport):
    """Bounded-retry wrapper with backoff, jitter and rate limiting.

    The wrapper owns everything operational about a send: it throttles each
    *attempt* through the rate limiter (a retry consumes rate budget too),
    classifies failures via :attr:`TransportError.retryable`, sleeps the
    policy's jittered backoff between attempts, and re-raises terminal
    errors — or the last retryable error once attempts are exhausted —
    unchanged.

    Resilience: when a :class:`~repro.resilience.CircuitBreaker` is attached,
    every attempt first passes through ``breaker.acquire()`` — an open
    breaker fast-fails the whole send with
    :class:`~repro.resilience.CircuitOpenError` *before* any rate budget or
    transport counter is spent — and each attempt's outcome is reported back
    (retryable failures count against the breaker; terminal ones prove the
    backend is alive).  When the ambient
    :func:`~repro.resilience.current_deadline` is set, the ladder refuses to
    start an attempt past the deadline or to sleep a backoff that would
    overshoot it, raising :class:`~repro.resilience.DeadlineExceeded`
    chained to the last transport error.

    Observability: when a tracer is attached, every :meth:`send` opens a
    ``transport:send`` span with one ``transport:attempt`` child per attempt,
    tagged with the attempt ordinal, the rate-limiter wait it paid and — on
    failure — the retry reason.  The ``repro_transport_*`` counters
    (requests, attempts, retries by reason, failures, throttle waits) live
    only in a metrics registry — the one passed in, or a private one on the
    transport's own clock — and :meth:`stats` reads its totals from there.

    Args:
        inner: the transport that actually moves bytes.
        policy: retry/backoff schedule.
        limiter: optional rate limiter applied before every attempt.
        clock: time source for backoff sleeps.
        seed: seed of the jitter RNG (deterministic backoff under test).
        tracer: span producer (default: tracing disabled).
        metrics: metrics registry to record transport counters into
            (``None`` = a private registry on ``clock``).
        breaker: optional circuit breaker gating every attempt
            (``None`` = no availability gating).
    """

    def __init__(
        self,
        inner: Transport,
        policy: RetryPolicy | None = None,
        limiter: RateLimiter | None = None,
        clock: Clock | None = None,
        seed: int = 0,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.limiter = limiter
        self.breaker = breaker
        self._clock = clock or Clock()
        self._rng = random.Random(seed)
        # Guards the jitter RNG: concurrent senders draw backoff delays.
        self._lock = threading.Lock()
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracing import NOOP_TRACER

        self.tracer = NOOP_TRACER
        self._metrics: MetricsRegistry | None = None
        self.bind_observability(
            tracer=tracer,
            metrics=metrics if metrics is not None else MetricsRegistry(self._clock),
        )

    def bind_observability(
        self,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        """Attach (or re-attach) a tracer and/or metrics registry.

        Engines build their transport internally, so owners that assemble
        observability later (e.g. the serving layer) bind it here instead of
        reconstructing the transport.  Either argument may be ``None`` to
        leave that side unchanged.  Rebinding the registry carries the
        running ``repro_transport_*`` totals over into the new one, so
        :meth:`stats` never goes backwards.
        """
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None and metrics is not self._metrics:
            previous = self._families() if self._metrics is not None else ()
            self._metrics = metrics
            self._metric_requests = metrics.counter(
                "repro_transport_requests_total", "Logical sends through the transport."
            )
            self._metric_attempts = metrics.counter(
                "repro_transport_attempts_total", "Send attempts (retries included)."
            )
            self._metric_retries = metrics.counter(
                "repro_transport_retries_total",
                "Retried attempts by failure reason.",
                labels=("reason",),
            )
            self._metric_failures = metrics.counter(
                "repro_transport_failures_total", "Sends that ultimately failed."
            )
            self._metric_throttled = metrics.counter(
                "repro_transport_throttled_total",
                "Attempts that waited on the rate limiter.",
            )
            self._metric_wait = metrics.counter(
                "repro_transport_rate_limit_wait_seconds_total",
                "Cumulative seconds attempts spent waiting on the rate limiter.",
            )
            # 429s are the operationally interesting retry reason; make the
            # family's sample exist (at zero) before the first rate-limit hit.
            self._metric_retries.inc(0, reason="429")
            for old, new in zip(previous, self._families()):
                for labels, value in old.samples():
                    new.inc(value, **labels)

    def _families(self) -> tuple:
        """The transport's counter families, in a fixed order."""
        return (
            self._metric_requests,
            self._metric_attempts,
            self._metric_retries,
            self._metric_failures,
            self._metric_throttled,
            self._metric_wait,
        )

    def send(self, request: TransportRequest) -> TransportResponse:
        with self.tracer.span("transport:send") as send_scope:
            if self.tracer.enabled:
                send_scope.set_attribute("url", request.url)
            return self._send_attempts(request)

    def _send_attempts(self, request: TransportRequest) -> TransportResponse:
        last_error: TransportError | None = None
        deadline = current_deadline()
        for attempt in range(self.policy.max_attempts):
            if deadline is not None:
                deadline.check("transport send")
            if self.breaker is not None:
                # An open breaker fast-fails before any rate budget or
                # transport counter is spent; the breaker's own
                # fast-failure counter records the refusal.
                self.breaker.acquire()
            waited = 0.0
            if self.limiter is not None:
                waited = self.limiter.throttle(request.estimated_tokens)
                if waited > 0:
                    self._metric_throttled.inc()
                    self._metric_wait.inc(waited)
            self._metric_attempts.inc()
            if attempt == 0:
                self._metric_requests.inc()
            with self.tracer.span("transport:attempt") as scope:
                if self.tracer.enabled:
                    scope.set_attribute("attempt", attempt)
                    scope.set_attribute("rate_limit_wait_seconds", waited)
                    if self.breaker is not None:
                        scope.set_attribute("breaker_state", self.breaker.state)
                try:
                    response = self.inner.send(request)
                except TransportError as error:
                    if self.breaker is not None:
                        if error.retryable:
                            self.breaker.record_failure()
                        else:
                            # A terminal 4xx is a *live* backend answering;
                            # it must not push the breaker toward open.
                            self.breaker.record_success()
                    last_error = error
                    reason = retry_reason(error)
                    if self.tracer.enabled:
                        scope.set_attribute("retry_reason", reason)
                        scope.set_attribute("retryable", error.retryable)
                        # A retryable failure is swallowed here, so the span
                        # would otherwise close "ok"; mark it failed up front.
                        scope.span.status = "error"
                    if not error.retryable or attempt == self.policy.max_attempts - 1:
                        self._metric_failures.inc()
                        raise
                    with self._lock:
                        delay = self.policy.delay(attempt, self._rng)
                    self._metric_retries.inc(reason=reason)
                else:
                    if self.breaker is not None:
                        self.breaker.record_success()
                    return response
            if deadline is not None and not deadline.allows(delay):
                # Sleeping the backoff would overshoot the budget: fail now,
                # typed, with the transport error as the cause chain.
                self._metric_failures.inc()
                raise DeadlineExceeded(
                    f"backoff of {delay:.3f}s would overshoot the deadline "
                    f"({deadline.remaining():.3f}s remaining) after "
                    f"{attempt + 1} attempts",
                    budget_seconds=deadline.budget_seconds,
                    elapsed_seconds=deadline.elapsed(),
                ) from last_error
            self._clock.sleep(delay)
        raise last_error if last_error is not None else AssertionError("unreachable")

    def stats(self) -> dict[str, object]:
        """Operational counters (JSON-serializable, folded into ``/stats``),
        read from the bound registry's ``repro_transport_*`` families."""
        stats: dict[str, object] = {
            "requests": int(self._metric_requests.value()),
            "attempts": int(self._metric_attempts.value()),
            "retries": int(sum(value for _, value in self._metric_retries.samples())),
            "failures": int(self._metric_failures.value()),
        }
        if self.limiter is not None:
            stats["throttled_requests"] = self.limiter.throttled_requests
            stats["rate_limit_wait_seconds"] = round(self.limiter.waited_seconds, 6)
        if self.breaker is not None:
            stats["breaker"] = self.breaker.stats()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetryingTransport(inner={self.inner!r}, "
            f"max_attempts={self.policy.max_attempts})"
        )
