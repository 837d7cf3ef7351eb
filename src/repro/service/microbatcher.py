"""Request queue and micro-batcher: aggregate concurrent requests into flushes.

The paper's amortization argument is per-run: one batch prompt spreads its
instruction and demonstration tokens over ``batch_size`` questions.  A serving
deployment can apply the same idea *across callers*: many concurrent producers
enqueue single pairs, and one consumer flushes them through the pipeline as a
micro-batch once either ``max_batch_size`` requests are waiting or the oldest
request has waited ``max_wait`` seconds — the classic latency/throughput
trade-off dial of batching inference servers.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.data.schema import EntityPair
from repro.engines.transport import Clock


class ServiceClosed(RuntimeError):
    """Raised when submitting to a queue/service that has been shut down."""


class AdmissionError(RuntimeError):
    """Base class for requests rejected at admission time."""


class ServiceOverloaded(AdmissionError):
    """Raised when the bounded request queue stays full past the timeout."""


@dataclass
class PendingRequest:
    """One enqueued resolution request awaiting a micro-batch flush.

    Attributes:
        pair: the pair to resolve.
        fingerprint: canonical content fingerprint (cache / dedup key).
        future: completed with a :class:`~repro.pipeline.resolver.Resolution`
            (or an exception) when the flush containing this request finishes.
        enqueued_at: ``time.monotonic()`` timestamp of admission.
        tenant: name of the submitting tenant (cost attribution of the flush
            charges the pair's owning tenant); ``None`` for anonymous traffic.
    """

    pair: EntityPair
    fingerprint: str
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    tenant: str | None = None


class RequestQueue:
    """A bounded FIFO of :class:`PendingRequest` with batch-oriented reads.

    Producers call :meth:`put`, blocking while the queue is full
    (backpressure) and failing with :class:`ServiceOverloaded` after
    ``timeout`` seconds.  The consumer calls :meth:`get_batch`, which blocks
    until at least one request is available and then collects up to
    ``max_size`` requests, waiting at most ``max_wait`` seconds for the batch
    to fill.

    Args:
        capacity: maximum number of queued requests.
        clock: time source for admission timestamps and deadlines; tests
            inject a :class:`~repro.engines.faults.FakeClock` to drive the
            deadline logic without sleeping.
    """

    def __init__(self, capacity: int, clock: Clock | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock or Clock()
        self._items: list[PendingRequest] = []
        self._condition = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._condition:
            return len(self._items)

    @property
    def closed(self) -> bool:
        """Whether the queue has been closed to new requests."""
        with self._condition:
            return self._closed

    def put(self, request: PendingRequest, timeout: float | None = None) -> None:
        """Enqueue a request, blocking while the queue is full.

        Raises:
            ServiceClosed: if the queue has been closed.
            ServiceOverloaded: if the queue is still full after ``timeout``
                seconds (``None`` blocks indefinitely).
        """
        deadline = None if timeout is None else self.clock.monotonic() + timeout
        with self._condition:
            while True:
                if self._closed:
                    raise ServiceClosed("request queue is closed")
                if len(self._items) < self.capacity:
                    break
                remaining = (
                    None if deadline is None else deadline - self.clock.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServiceOverloaded(
                        f"request queue full ({self.capacity} pending); "
                        "retry later or raise queue_capacity"
                    )
                self._condition.wait(remaining)
            self._items.append(request)
            self._condition.notify_all()

    def get_batch(self, max_size: int, max_wait: float) -> list[PendingRequest]:
        """Collect the next micro-batch (empty only when closed and drained).

        Blocks until at least one request is available, then keeps collecting
        until either ``max_size`` requests are in hand or the oldest request
        in the batch has waited ``max_wait`` seconds since its admission — so
        time spent queued behind a slow flush counts against the deadline.

        Raises:
            ValueError: for a non-positive ``max_size`` or negative
                ``max_wait``.
        """
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        with self._condition:
            while not self._items:
                if self._closed:
                    return []
                self._condition.wait()
            batch = self._take(max_size)
            deadline = batch[0].enqueued_at + max_wait
            while len(batch) < max_size and not self._closed:
                remaining = deadline - self.clock.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(remaining)
                batch.extend(self._take(max_size - len(batch)))
            self._condition.notify_all()
            return batch

    def _take(self, count: int) -> list[PendingRequest]:
        taken = self._items[:count]
        del self._items[: len(taken)]
        if taken:
            self._condition.notify_all()
        return taken

    def drain(self) -> list[PendingRequest]:
        """Remove and return every queued request (used during shutdown)."""
        with self._condition:
            remaining = self._items[:]
            self._items.clear()
            self._condition.notify_all()
            return remaining

    def close(self) -> None:
        """Refuse new requests and wake every blocked producer/consumer."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()


class MicroBatcher:
    """Background consumer flushing a :class:`RequestQueue` in micro-batches.

    Args:
        queue: the bounded request queue to drain.
        flush: callback invoked as ``flush(batch, reason)`` with each
            non-empty micro-batch, where ``reason`` is ``"size"`` (the batch
            filled), ``"deadline"`` (the oldest request's wait expired) or
            ``"close"`` (shutdown drain) — computed once, when the batch
            leaves the queue.  The service's flush handler fails the batch's
            futures rather than raising, but if the callback does raise, the
            batcher fails any still-pending futures of the batch with that
            exception and keeps the consumer thread alive
            (:attr:`num_flush_failures` counts such flushes).
        max_batch_size: requests per flush.
        max_wait: seconds the oldest admitted request may wait before a
            partial batch is flushed.
    """

    def __init__(
        self,
        queue: RequestQueue,
        flush: Callable[[list[PendingRequest], str], None],
        max_batch_size: int,
        max_wait: float,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.queue = queue
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self._flush = flush
        self._thread: threading.Thread | None = None
        #: Flushes whose callback raised (the batch's futures were failed
        #: with that exception and the consumer thread kept running).
        self.num_flush_failures = 0

    @property
    def running(self) -> bool:
        """Whether the consumer thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the consumer thread (idempotent)."""
        if self.running:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-microbatcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = None) -> None:
        """Close the queue, drain remaining batches, and join the thread.

        If the consumer is still mid-flush when ``timeout`` expires, the
        thread handle is kept so :attr:`running` stays truthful and a later
        ``stop()`` can finish the join.
        """
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout)
            if not self._thread.is_alive():
                self._thread = None

    def flush_reason(self, batch: list[PendingRequest]) -> str:
        """Why ``batch`` left the queue: ``"size"``, ``"close"`` or ``"deadline"``."""
        if len(batch) >= self.max_batch_size:
            return "size"
        if self.queue.closed:
            return "close"
        return "deadline"

    def _loop(self) -> None:
        while True:
            batch = self.queue.get_batch(self.max_batch_size, self.max_wait)
            if not batch:
                # Only returned once the queue is closed and fully drained.
                return
            try:
                self._flush(batch, self.flush_reason(batch))
            except Exception as error:  # noqa: BLE001 - the consumer must
                # outlive any single bad flush (an open circuit breaker, a
                # poison batch).  The flush callback normally owns delivery,
                # but if it raised *before* failing its futures, waiters
                # would hang forever — fail them here, then keep consuming.
                self.num_flush_failures += 1
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(error)
