"""Tests for the bounded request queue and the micro-batching consumer."""

import threading
import time

import pytest

from repro.data.schema import EntityPair, Record
from repro.service import (
    MicroBatcher,
    PendingRequest,
    RequestQueue,
    ServiceClosed,
    ServiceOverloaded,
)


def _request(index: int) -> PendingRequest:
    values = {"name": f"item-{index}"}
    return PendingRequest(
        pair=EntityPair(
            pair_id=f"p{index}",
            left=Record(record_id=f"p{index}-L", values=values),
            right=Record(record_id=f"p{index}-R", values=values),
        ),
        fingerprint=f"fp{index}",
    )


class TestRequestQueue:
    def test_flush_on_size(self):
        queue = RequestQueue(capacity=16)
        for index in range(5):
            queue.put(_request(index))
        # max_wait is irrelevant: the batch fills from what is queued.
        batch = queue.get_batch(max_size=4, max_wait=10.0)
        assert [request.fingerprint for request in batch] == ["fp0", "fp1", "fp2", "fp3"]
        assert len(queue) == 1

    def test_flush_on_deadline_with_partial_batch(self):
        queue = RequestQueue(capacity=16)
        queue.put(_request(0))
        started = time.monotonic()
        batch = queue.get_batch(max_size=8, max_wait=0.05)
        elapsed = time.monotonic() - started
        assert len(batch) == 1
        assert elapsed < 5.0  # returned at the deadline, not blocked forever

    def test_deadline_counts_from_admission_not_batch_open(self):
        # A request that already waited max_wait in the queue (e.g. behind a
        # slow flush) is flushed immediately when the consumer next looks.
        queue = RequestQueue(capacity=16)
        stale = _request(0)
        stale.enqueued_at = time.monotonic() - 10.0
        queue.put(stale)
        started = time.monotonic()
        batch = queue.get_batch(max_size=8, max_wait=5.0)
        assert len(batch) == 1
        assert time.monotonic() - started < 1.0  # no fresh 5s deadline

    def test_zero_wait_flushes_immediately(self):
        queue = RequestQueue(capacity=16)
        queue.put(_request(0))
        queue.put(_request(1))
        batch = queue.get_batch(max_size=8, max_wait=0.0)
        assert len(batch) == 2

    def test_get_batch_blocks_until_first_item(self):
        queue = RequestQueue(capacity=16)
        result: list[PendingRequest] = []

        def consume():
            result.extend(queue.get_batch(max_size=2, max_wait=0.5))

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.02)
        queue.put(_request(0))
        queue.put(_request(1))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(result) == 2

    def test_backpressure_blocks_then_rejects(self):
        queue = RequestQueue(capacity=1)
        queue.put(_request(0))
        with pytest.raises(ServiceOverloaded, match="queue full"):
            queue.put(_request(1), timeout=0.02)

    def test_backpressure_releases_when_consumer_drains(self):
        queue = RequestQueue(capacity=1)
        queue.put(_request(0))

        def drain_soon():
            time.sleep(0.02)
            queue.get_batch(max_size=1, max_wait=0.0)

        thread = threading.Thread(target=drain_soon)
        thread.start()
        queue.put(_request(1), timeout=5.0)  # unblocked by the drain
        thread.join(timeout=5.0)
        assert len(queue) == 1

    def test_put_after_close_rejected(self):
        queue = RequestQueue(capacity=4)
        queue.close()
        with pytest.raises(ServiceClosed):
            queue.put(_request(0))

    def test_get_batch_returns_empty_only_when_closed_and_drained(self):
        queue = RequestQueue(capacity=4)
        queue.put(_request(0))
        queue.close()
        assert len(queue.get_batch(max_size=8, max_wait=0.0)) == 1
        assert queue.get_batch(max_size=8, max_wait=0.0) == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            RequestQueue(capacity=0)
        queue = RequestQueue(capacity=4)
        with pytest.raises(ValueError, match="max_size"):
            queue.get_batch(max_size=0, max_wait=0.1)
        with pytest.raises(ValueError, match="max_wait"):
            queue.get_batch(max_size=1, max_wait=-0.1)


class TestMicroBatcher:
    def test_flushes_in_size_bounded_batches(self):
        queue = RequestQueue(capacity=64)
        flushes: list[list[str]] = []
        reasons: list[str] = []
        done = threading.Event()

        def flush(batch, reason):
            flushes.append([request.fingerprint for request in batch])
            reasons.append(reason)
            if sum(len(flushed) for flushed in flushes) == 10:
                done.set()

        for index in range(10):
            queue.put(_request(index))
        batcher = MicroBatcher(queue, flush, max_batch_size=4, max_wait=0.01)
        batcher.start()
        assert done.wait(timeout=5.0)
        batcher.stop(timeout=5.0)
        assert not batcher.running
        # Pre-filled queue: deterministic 4/4/2 split, order preserved.
        assert flushes == [
            ["fp0", "fp1", "fp2", "fp3"],
            ["fp4", "fp5", "fp6", "fp7"],
            ["fp8", "fp9"],
        ]
        # Two full batches; the ragged tail leaves on its (already expired)
        # deadline — stop() is only called once all ten are flushed.
        assert reasons == ["size", "size", "deadline"]

    def test_stop_drains_queued_requests(self):
        queue = RequestQueue(capacity=16)
        flushed: list[str] = []
        batcher = MicroBatcher(
            queue,
            lambda batch, reason: flushed.extend(request.fingerprint for request in batch),
            max_batch_size=8,
            max_wait=0.01,
        )
        for index in range(3):
            queue.put(_request(index))
        batcher.start()
        batcher.stop(timeout=5.0)
        assert flushed == ["fp0", "fp1", "fp2"]

    def test_flush_exception_fails_futures_and_keeps_consumer_alive(self):
        # A flush callback that raises before delivering its futures must not
        # kill the consumer thread or strand its waiters: the batcher fails
        # the batch's still-pending futures with the exception and keeps
        # consuming subsequent batches.
        queue = RequestQueue(capacity=16)
        boom = RuntimeError("poison batch")
        flushed_ok: list[str] = []
        recovered = threading.Event()

        def flush(batch, reason):
            if any(request.fingerprint == "fp0" for request in batch):
                raise boom
            flushed_ok.extend(request.fingerprint for request in batch)
            recovered.set()

        batcher = MicroBatcher(queue, flush, max_batch_size=1, max_wait=0.01)
        poisoned = _request(0)
        queue.put(poisoned)
        batcher.start()
        with pytest.raises(RuntimeError, match="poison batch"):
            poisoned.future.result(timeout=5.0)
        assert batcher.running  # the consumer survived the bad flush
        queue.put(_request(1))  # and keeps serving the next batch
        assert recovered.wait(timeout=5.0)
        assert flushed_ok == ["fp1"]
        assert batcher.num_flush_failures == 1
        batcher.stop(timeout=5.0)

    def test_flush_exception_leaves_delivered_futures_alone(self):
        # If the callback already settled some futures before raising, only
        # the still-pending ones receive the exception.
        queue = RequestQueue(capacity=16)

        def flush(batch, reason):
            batch[0].future.set_result("delivered")
            raise RuntimeError("failed after partial delivery")

        batcher = MicroBatcher(queue, flush, max_batch_size=2, max_wait=10.0)
        first, second = _request(0), _request(1)
        queue.put(first)
        queue.put(second)
        batcher.start()
        assert first.future.result(timeout=5.0) == "delivered"
        with pytest.raises(RuntimeError, match="partial delivery"):
            second.future.result(timeout=5.0)
        batcher.stop(timeout=5.0)

    def test_start_is_idempotent(self):
        queue = RequestQueue(capacity=4)
        batcher = MicroBatcher(
            queue, lambda batch, reason: None, max_batch_size=2, max_wait=0.01)
        batcher.start()
        first_thread = batcher._thread
        batcher.start()
        assert batcher._thread is first_thread
        batcher.stop(timeout=5.0)
