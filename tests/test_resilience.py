"""Tests for the resilience layer: breaker, deadline budgets, degradation.

Everything runs on virtual time (:class:`~repro.engines.faults.FakeClock`) —
outage windows, cooldowns and backoff schedules are asserted in microseconds
with zero real sleeps.  Coverage spans all three wiring layers:

* the :class:`CircuitBreaker` / :class:`DeadlineBudget` state machines alone;
* :class:`~repro.engines.transport.RetryingTransport` consulting the breaker
  per attempt (fast-fail, probe recovery) and the ambient deadline (backoff
  refusal);
* :class:`~repro.service.ResolutionService` degraded mode (cache and joins
  served, new work refused) plus the HTTP liveness/readiness split;
* :class:`~repro.engine.engine.RunEngine` treating an open breaker as
  checkpoint-then-pause with a zero-repeated-calls resume.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.schema import EntityPair, Record
from repro.engine import RunEngine
from repro.engines.faults import FakeClock, ScriptedTransport
from repro.engines.registry import create_engine
from repro.engines.transport import (
    RetryPolicy,
    RetryableTransportError,
    RetryingTransport,
    TerminalTransportError,
    TransportRequest,
)
from repro.llm.base import LLMClient
from repro.llm.executors import ConcurrentExecutor
from repro.resilience import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineBudget,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.service import ResolutionService, ServiceConfig, ServiceDegraded
from repro.service.aio import AsyncServiceHTTPServer

REQUEST = TransportRequest(url="https://api.test/v1/x", payload={"k": "v"})


def _pair(name: str) -> EntityPair:
    values = {"name": name}
    return EntityPair(
        pair_id=f"p-{name}",
        left=Record(record_id=f"p-{name}-L", values=values),
        right=Record(record_id=f"p-{name}-R", values=values),
    )


class TestBreakerConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"failure_threshold": 0},
            {"window_seconds": 0.0},
            {"error_rate_threshold": 0.0},
            {"error_rate_threshold": 1.1},
            {"min_window_requests": 0},
            {"cooldown_seconds": -1.0},
            {"half_open_probes": 0},
            {"success_threshold": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            BreakerConfig(**overrides)

    def test_dict_roundtrip(self):
        config = BreakerConfig(failure_threshold=3, cooldown_seconds=2.5)
        assert BreakerConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown breaker config fields"):
            BreakerConfig.from_dict({"failure_thresholds": 3})

    def test_with_overrides(self):
        config = BreakerConfig().with_overrides(failure_threshold=2)
        assert config.failure_threshold == 2
        assert config.cooldown_seconds == BreakerConfig().cooldown_seconds


class TestCircuitBreaker:
    def _breaker(self, clock, **overrides) -> CircuitBreaker:
        defaults = dict(failure_threshold=3, cooldown_seconds=10.0)
        defaults.update(overrides)
        return CircuitBreaker(BreakerConfig(**defaults), clock=clock, name="t")

    def test_trips_on_consecutive_failures(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.acquire()
        assert excinfo.value.retry_after == pytest.approx(10.0)
        assert excinfo.value.retryable is False
        assert breaker.fast_failures == 1
        clock.advance(4.0)
        assert breaker.retry_after == pytest.approx(6.0)

    def test_success_resets_consecutive_failures(self):
        breaker = self._breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN

    def test_trips_on_error_rate_over_window(self):
        clock = FakeClock()
        breaker = self._breaker(
            clock,
            failure_threshold=100,  # out of reach: only the rate can trip
            min_window_requests=10,
            error_rate_threshold=0.5,
            window_seconds=30.0,
        )
        for _ in range(5):
            breaker.record_success()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # 4/9 < 0.5
        breaker.record_failure()  # 5/10 >= 0.5
        assert breaker.state == STATE_OPEN

    def test_window_prunes_stale_outcomes(self):
        clock = FakeClock()
        breaker = self._breaker(
            clock,
            failure_threshold=100,
            min_window_requests=4,
            error_rate_threshold=0.5,
            window_seconds=30.0,
        )
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)  # the three failures age out of the window
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # 1 windowed outcome < min 4

    def test_cooldown_half_open_probe_and_close(self):
        clock = FakeClock()
        breaker = self._breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock.advance(5.0)
        assert breaker.state == STATE_HALF_OPEN
        breaker.acquire()  # the single probe slot
        with pytest.raises(CircuitOpenError, match="probe slots taken"):
            breaker.acquire()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.retry_after == 0.0
        assert breaker.open_seconds_total() == pytest.approx(5.0)

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self._breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.acquire()
        breaker.record_failure()  # the probe failed
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        assert breaker.retry_after == pytest.approx(5.0)  # full cooldown again

    def test_success_threshold_requires_multiple_probes(self):
        clock = FakeClock()
        breaker = self._breaker(
            clock,
            failure_threshold=1,
            cooldown_seconds=5.0,
            half_open_probes=2,
            success_threshold=2,
        )
        breaker.record_failure()
        clock.advance(5.0)
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == STATE_HALF_OPEN  # one success is not enough
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED

    def test_state_code_and_stats(self):
        clock = FakeClock()
        breaker = self._breaker(clock, failure_threshold=1, cooldown_seconds=5.0)
        assert breaker.state_code() == 0
        breaker.record_failure()
        assert breaker.state_code() == 1
        clock.advance(5.0)
        assert breaker.state_code() == 2
        stats = breaker.stats()
        assert stats["name"] == "t"
        assert stats["state"] == STATE_HALF_OPEN
        assert stats["trips"] == 1
        assert stats["open_seconds_total"] == pytest.approx(5.0)
        json.dumps(stats)  # must be JSON-serializable for /stats


class TestDeadlineBudget:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="budget_seconds"):
            DeadlineBudget(0.0)

    def test_elapsed_remaining_and_check(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        clock.advance(3.0)
        assert budget.elapsed() == pytest.approx(3.0)
        assert budget.remaining() == pytest.approx(7.0)
        assert not budget.expired
        assert budget.allows(6.9)
        assert not budget.allows(7.0)  # would land exactly on the deadline
        budget.check("unit test")  # within budget: no raise
        clock.advance(7.0)
        assert budget.expired
        assert budget.remaining() == 0.0
        with pytest.raises(DeadlineExceeded) as excinfo:
            budget.check("unit test")
        assert excinfo.value.budget_seconds == pytest.approx(10.0)
        assert excinfo.value.elapsed_seconds == pytest.approx(10.0)
        assert excinfo.value.retryable is False

    def test_deadline_scope_installs_and_restores(self):
        assert current_deadline() is None
        budget = DeadlineBudget(5.0, clock=FakeClock())
        with deadline_scope(budget):
            assert current_deadline() is budget
            with deadline_scope(None):  # explicit clearing for reused contexts
                assert current_deadline() is None
            assert current_deadline() is budget
        assert current_deadline() is None


class TestTransportBreakerIntegration:
    def _transport(self, script, clock, breaker=None, max_attempts=6):
        return RetryingTransport(
            ScriptedTransport(script),
            policy=RetryPolicy(
                max_attempts=max_attempts,
                base_delay=1.0,
                multiplier=2.0,
                max_delay=60.0,
                jitter=0.0,
            ),
            clock=clock,
            breaker=breaker,
        )

    def test_breaker_trips_mid_ladder_and_fast_fails_next_send(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=3, cooldown_seconds=60.0), clock=clock
        )
        transport = self._transport([503, 503, 503], clock, breaker=breaker)
        with pytest.raises(CircuitOpenError):
            transport.send(REQUEST)
        # The third failure tripped the breaker; the fourth attempt was
        # refused before touching the backend.
        assert transport.inner.calls == 3
        assert breaker.state == STATE_OPEN
        sleeps_before = list(clock.sleeps)
        with pytest.raises(CircuitOpenError):
            transport.send(REQUEST)
        assert transport.inner.calls == 3  # fast-fail: no backend traffic
        assert clock.sleeps == sleeps_before  # and no backoff sleeps
        assert breaker.fast_failures == 2
        assert transport.stats()["breaker"]["state"] == STATE_OPEN

    def test_probe_recovers_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=3, cooldown_seconds=60.0), clock=clock
        )
        transport = self._transport([503, 503, 503, {"ok": True}], clock, breaker=breaker)
        with pytest.raises(CircuitOpenError):
            transport.send(REQUEST)
        clock.advance(60.0)
        response = transport.send(REQUEST)  # the half-open probe
        assert response.payload == {"ok": True}
        assert breaker.state == STATE_CLOSED

    def test_terminal_error_counts_as_backend_alive(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=2, cooldown_seconds=60.0), clock=clock
        )
        transport = self._transport([503, 400], clock, breaker=breaker)
        # One retryable failure, then a terminal 400: the backend answered,
        # so the breaker must stay closed (consecutive count reset).
        with pytest.raises(TerminalTransportError):
            transport.send(REQUEST)
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()  # one more retryable failure alone...
        assert breaker.state == STATE_CLOSED  # ...does not trip threshold 2

    def test_backoff_refused_when_it_would_overshoot_deadline(self):
        clock = FakeClock()
        transport = self._transport([503, 503, 503], clock)
        with deadline_scope(DeadlineBudget(2.5, clock=clock)):
            with pytest.raises(DeadlineExceeded) as excinfo:
                transport.send(REQUEST)
        # Attempt 1 fails, sleeps 1s; attempt 2 fails, the 2s backoff would
        # overshoot the 2.5s budget — refused with the cause chain intact.
        assert transport.inner.calls == 2
        assert clock.sleeps == [1.0]
        assert isinstance(excinfo.value.__cause__, RetryableTransportError)

    def test_expired_deadline_refuses_the_attempt_itself(self):
        clock = FakeClock()
        transport = self._transport([503], clock)
        budget = DeadlineBudget(1.0, clock=clock)
        clock.advance(5.0)
        with deadline_scope(budget):
            with pytest.raises(DeadlineExceeded):
                transport.send(REQUEST)
        assert transport.inner.calls == 0  # no attempt was started


@pytest.fixture()
def degraded_service(beer_dataset):
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, cooldown_seconds=60.0),
        clock=clock,
        name="test-backend",
    )
    config = ServiceConfig(
        batcher=BatcherConfig(seed=1), max_batch_size=8, max_wait_seconds=0.02
    )
    service = ResolutionService.from_dataset(beer_dataset, config, breaker=breaker)
    yield service, breaker, clock
    service.stop()


class TestServiceDegradedMode:
    def test_cache_hits_serve_while_new_work_is_refused(
        self, degraded_service, beer_dataset
    ):
        service, breaker, clock = degraded_service
        service.start()
        pair = beer_dataset.splits.test[0].without_label()
        [resolution] = service.resolve_many([pair])  # populate the cache
        breaker.record_failure()  # trip: backend is now gated
        assert service.running and not service.ready

        hit = service.submit(pair)  # cached: served instantly, no LLM
        assert hit.result(timeout=5.0).label == resolution.label

        with pytest.raises(ServiceDegraded) as excinfo:
            service.submit(_pair("degraded-novel"))
        assert excinfo.value.retry_after == pytest.approx(60.0)
        stats = service.stats()
        assert stats.rejected_degraded == 1
        assert stats.breaker["state"] == STATE_OPEN

    def test_bulk_path_refuses_uncached_but_serves_cached(
        self, degraded_service, beer_dataset
    ):
        service, breaker, clock = degraded_service
        service.start()
        pair = beer_dataset.splits.test[1].without_label()
        service.resolve_many([pair])
        breaker.record_failure()
        assert service.resolve_bulk([pair])  # cached-only bulk still serves
        with pytest.raises(ServiceDegraded):
            service.resolve_bulk([pair, _pair("bulk-novel")])

    def test_inflight_joins_still_serve_and_half_open_recovers(
        self, degraded_service
    ):
        service, breaker, clock = degraded_service
        pair = _pair("joinable")
        first = service.submit(pair)  # queued (consumer not started yet)
        breaker.record_failure()
        joined = service.submit(pair)  # identical pair: joins, not refused
        assert service.stats().inflight_joined == 1
        with pytest.raises(ServiceDegraded):
            service.submit(_pair("other-novel"))
        # Recovery: cooldown elapses, the breaker goes half-open, and
        # half-open admits work — probe traffic is how the service recovers.
        clock.advance(60.0)
        assert breaker.state == STATE_HALF_OPEN
        service.start()
        assert service.ready  # half-open + running consumer = ready
        assert first.result(timeout=10.0).label == joined.result(timeout=10.0).label


class TestResilienceHTTP:
    @pytest.fixture()
    def degraded_server(self, degraded_service):
        service, breaker, clock = degraded_service
        service.start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        yield server, breaker, clock
        server.shutdown()

    @staticmethod
    def _get(server, path):
        try:
            with urllib.request.urlopen(server.address + path, timeout=10) as response:
                return response.status, json.loads(response.read()), response.headers
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error.headers

    def test_healthz_stays_live_while_readyz_drains(self, degraded_server):
        server, breaker, clock = degraded_server
        status, payload, _ = self._get(server, "/readyz")
        assert status == 200 and payload["ready"] is True
        breaker.record_failure()
        # Liveness: still 200 — the process is healthy, only its backend is
        # gated; restarting the replica would not help.
        status, payload, _ = self._get(server, "/healthz")
        assert status == 200
        assert payload["live"] is True and payload["ready"] is False
        # Readiness: 503 with a Retry-After hint for the load balancer.
        status, payload, headers = self._get(server, "/readyz")
        assert status == 503
        assert payload["breaker"]["state"] == STATE_OPEN
        assert int(headers["Retry-After"]) >= 1
        # Recovery flips readiness back without a restart.
        clock.advance(60.0)
        status, payload, _ = self._get(server, "/readyz")
        assert status == 200

    def test_resolve_returns_503_with_retry_after_while_degraded(
        self, degraded_server
    ):
        server, breaker, clock = degraded_server
        breaker.record_failure()
        body = json.dumps(
            {"pairs": [{"left": {"name": "deg-http"}, "right": {"name": "deg-http"}}]}
        ).encode("utf-8")
        request = urllib.request.Request(
            server.address + "/resolve",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 503
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        assert "breaker" in json.loads(excinfo.value.read())["error"]


class _BreakerOpenLLM(LLMClient):
    """Raises :class:`CircuitOpenError` instead of making its k-th call.

    The transport-level analogue of :class:`repro.engine.faults.CrashingLLM`:
    the faulted attempt never reaches the backend, the ordinal keeps counting
    past the fault, so a resume can share the wrapper with the paused run and
    the zero-repeated-calls property is assertable from ``attempts``.
    """

    def __init__(self, inner: LLMClient, fail_at_call: int) -> None:
        super().__init__(model_name=inner.model_name, tokenizer=inner.tokenizer)
        self.inner = inner
        self.fail_at_call = fail_at_call
        self._lock = threading.Lock()
        self.attempts = 0
        self.faults = 0

    def _generate(self, prompt_text: str) -> str:
        with self._lock:
            self.attempts += 1
            if self.attempts == self.fail_at_call:
                self.faults += 1
                raise CircuitOpenError(
                    "circuit 'backend' is open (backend gated)", retry_after=5.0
                )
        return self.inner._generate(prompt_text)


class TestEnginePauseResume:
    @pytest.mark.parametrize(
        "make_executor",
        [lambda: None, lambda: ConcurrentExecutor(4)],
        ids=["serial", "concurrent4"],
    )
    def test_open_breaker_pauses_then_resumes_with_zero_repeated_calls(
        self, beer_dataset, tmp_path, make_executor
    ):
        config = BatcherConfig(seed=3, max_questions=32)
        oracle = BatchER(config).run(beer_dataset)
        total_calls = oracle.cost.num_llm_calls
        for k in range(1, total_calls + 1):
            llm = _BreakerOpenLLM(
                create_engine(
                    config.engine,
                    model=config.model,
                    seed=config.seed,
                    temperature=config.temperature,
                ),
                fail_at_call=k,
            )
            engine = RunEngine(
                config=config,
                llm=llm,
                executor=make_executor(),
                checkpoint_dir=tmp_path / f"pause-{k}",
            )
            context = engine.plan(beer_dataset)
            with pytest.raises(CircuitOpenError):
                engine.execute(context)
            report = engine.last_report
            assert report is not None
            assert report.paused is True
            assert report.checkpointed is True
            assert report.to_dict()["paused"] is True
            paid = llm.attempts - llm.faults
            assert report.batches_executed == paid

            resumed = engine.execute(context)  # same context: plain Pipeline.run
            assert resumed == oracle  # byte-identical to the never-paused run
            assert engine.last_report.paused is False
            assert engine.last_report.batches_resumed == paid
            # Every call before the pause was checkpointed; the resume
            # repeated none of them (the faulted attempt never reached the LLM).
            assert llm.attempts - llm.faults == total_calls

    def test_other_failures_do_not_mark_the_report_paused(
        self, beer_dataset, checkpoint_dir, make_crashing_llm
    ):
        config = BatcherConfig(seed=3, max_questions=32)
        engine = RunEngine(
            config=config,
            llm=make_crashing_llm(config, fail_at_call=2),
            checkpoint_dir=checkpoint_dir,
        )
        with pytest.raises(Exception, match="injected LLM fault"):
            engine.run(beer_dataset)
        assert engine.last_report is not None
        assert engine.last_report.paused is False
