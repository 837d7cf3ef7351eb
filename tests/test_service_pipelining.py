"""Tests for pipelined micro-batch flushes.

The consumer thread plans a flush (featurize, batch, select, render) under
the session lock, then hands its dispatch phase (model calls, parsing,
charging, fan-out) to a dispatch thread, so later flushes are planned while
the model answers earlier ones.  Up to ``max_flushes_in_flight(config)``
flushes are in flight: twice the flushes whose prompts the LLM pool runs at
once.  These tests pin what that must not change (labels, costs, deadlines,
traces) and the bound on overlap.
"""

import sys
import threading
import time

import pytest

from repro.core.config import BatcherConfig
from repro.data.fingerprint import pair_fingerprint
from repro.observability.tracing import Tracer
from repro.pipeline import Resolver
from repro.resilience import DeadlineBudget, current_deadline
from repro.service import ResolutionService, ServiceConfig, TenantConfig
from repro.service.service import max_flushes_in_flight

#: Pairs per flush in these tests: two prompts of the default batch size.
FLUSH = 16

#: LLM pool size: it runs two flushes' prompts at once.
WORKERS = 4


def _config(**overrides) -> ServiceConfig:
    return ServiceConfig(
        **{
            "batcher": BatcherConfig(seed=1),
            "max_batch_size": FLUSH,
            "max_wait_seconds": 0.1,
            "num_workers": WORKERS,
            **overrides,
        }
    )


#: Flushes in flight at once in these tests (4).
BOUND = max_flushes_in_flight(_config())


@pytest.fixture()
def questions(beer_dataset):
    """One flush more than the service keeps in flight."""
    test = [pair.without_label() for pair in beer_dataset.splits.test]
    assert len(test) >= FLUSH * (BOUND + 1)
    return test[: FLUSH * (BOUND + 1)]


def _service(beer_dataset, **overrides) -> ResolutionService:
    return ResolutionService.from_dataset(beer_dataset, _config(**overrides))


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _gate_model_calls(monkeypatch, service) -> threading.Event:
    """Hold every model call of the session until the returned event is set."""
    release = threading.Event()
    complete = service.resolver.llm.complete

    def gated(prompt_text):
        assert release.wait(30.0)
        return complete(prompt_text)

    monkeypatch.setattr(service.resolver.llm, "complete", gated)
    return release


def _track_plans(monkeypatch, service) -> tuple[list[int], list[int]]:
    """Record each plan phase's pair count when it starts and when it ends."""
    started: list[int] = []
    finished: list[int] = []
    plan = service.resolver.plan

    def tracked(pairs):
        pairs = list(pairs)
        started.append(len(pairs))
        result = plan(pairs)
        finished.append(len(pairs))
        return result

    monkeypatch.setattr(service.resolver, "plan", tracked)
    return started, finished


def _serial_oracle(beer_dataset, groups):
    """Labels and session of the same groups resolved one after another."""
    oracle = Resolver.from_dataset(beer_dataset, BatcherConfig(seed=1))
    labels = [resolution.label for group in groups for resolution in oracle.resolve(group)]
    return labels, oracle


class TestBound:
    @pytest.mark.parametrize(
        "max_batch_size, num_workers, expected",
        [
            # The default flush: 32 pairs in 4 prompts of 8 questions.
            (32, 1, 2), (32, 2, 2), (32, 4, 2), (32, 8, 4), (32, 16, 8),
            # 20 pairs need 3 prompts (the last holds 4 questions).
            (20, 1, 2), (20, 2, 2), (20, 4, 2), (20, 8, 4), (20, 16, 10),
        ],
    )
    def test_twice_the_flushes_the_pool_runs_at_once(
        self, max_batch_size, num_workers, expected
    ):
        config = ServiceConfig(max_batch_size=max_batch_size, num_workers=num_workers)
        assert max_flushes_in_flight(config) == expected


class TestOverlap:
    def test_next_flush_plans_while_the_model_answers_the_last(
        self, beer_dataset, questions, monkeypatch
    ):
        """With every model call held, ``BOUND`` flushes plan to completion
        and the next does not start planning until a flush finishes."""
        service = _service(beer_dataset)
        release = _gate_model_calls(monkeypatch, service)
        started, finished = _track_plans(monkeypatch, service)
        futures = [service.submit(pair) for pair in questions]
        service.start()
        try:
            assert _wait_until(lambda: len(finished) == BOUND)
            assert not any(future.done() for future in futures)
            # The consumer now holds the last flush and waits for a free
            # slot; give it the chance to (wrongly) start planning it.
            time.sleep(0.2)
            assert started == [FLUSH] * BOUND
        finally:
            release.set()
        try:
            for future in futures:
                future.result(timeout=30.0)
            assert started == finished == [FLUSH] * (BOUND + 1)
        finally:
            service.stop()

    def test_overlapping_flushes_match_a_serial_session(
        self, beer_dataset, questions, monkeypatch
    ):
        """Plans run in FIFO order, so ``BOUND`` flushes in flight label and
        pay for exactly what resolving the same groups serially does."""
        service = _service(beer_dataset)
        release = _gate_model_calls(monkeypatch, service)
        _, finished = _track_plans(monkeypatch, service)
        futures = [service.submit(pair) for pair in questions]
        service.start()
        try:
            assert _wait_until(lambda: len(finished) == BOUND)
        finally:
            release.set()
        try:
            labels = [future.result(timeout=30.0).label for future in futures]
        finally:
            service.stop()
        groups = [questions[start : start + FLUSH] for start in range(0, len(questions), FLUSH)]
        expected, oracle = _serial_oracle(beer_dataset, groups)
        assert labels == expected
        assert service.resolver.cost() == oracle.cost()
        assert service.resolver.num_labeled == oracle.num_labeled
        assert service.resolver.num_resolved == oracle.num_resolved == len(questions)


class TestStopAndFailure:
    def test_stop_with_flushes_in_flight_settles_every_future(
        self, beer_dataset, questions, monkeypatch
    ):
        """stop() waits for the ``BOUND`` flushes in flight (and drains the
        next), and joins the dispatch threads before the LLM pool shuts
        down."""
        service = _service(beer_dataset)
        release = _gate_model_calls(monkeypatch, service)
        _, finished = _track_plans(monkeypatch, service)
        dispatchers_alive_at_pool_shutdown = []
        shutdown = service._executor.shutdown

        def record_then_shutdown():
            dispatchers_alive_at_pool_shutdown.append(
                [
                    thread.name
                    for thread in threading.enumerate()
                    if thread.name.startswith("repro-service-dispatch")
                ]
            )
            shutdown()

        monkeypatch.setattr(service._executor, "shutdown", record_then_shutdown)
        futures = [service.submit(pair) for pair in questions]
        service.start()
        stopper = threading.Thread(target=service.stop)
        try:
            assert _wait_until(lambda: len(finished) == BOUND)
            stopper.start()
            assert _wait_until(lambda: service._queue.closed)
        finally:
            release.set()
            if stopper.ident is not None:
                stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        assert all(future.done() for future in futures)
        assert all(future.exception() is None for future in futures)
        assert dispatchers_alive_at_pool_shutdown == [[]]
        assert service._inflight == {}

    @pytest.mark.parametrize("where", ["finish", "cache"])
    def test_a_failed_dispatch_fails_only_its_own_flush(
        self, beer_dataset, questions, monkeypatch, where
    ):
        """A dispatch phase that raises, inside the resolve core (the
        session's finish) or after it (the cache write), fails its own
        flush's futures and joiners; the other flush and later requests are
        served."""
        service = _service(beer_dataset)
        boom = RuntimeError("dispatch failed")
        target = service.resolver if where == "finish" else service.cache
        name = "finish" if where == "finish" else "put"
        original = getattr(target, name)
        first_flush = {pair_fingerprint(pair) for pair in questions[:FLUSH]}
        failed = []

        def of_first_flush(argument) -> bool:
            if where == "finish":
                return argument.pairs[0] is questions[0]
            return argument in first_flush

        # The two flushes dispatch concurrently: fail the first flush's call,
        # whichever flush gets there first.
        def fail_first_flush(*args):
            if not failed and of_first_flush(args[0]):
                failed.append(args)
                raise boom
            return original(*args)

        monkeypatch.setattr(target, name, fail_first_flush)
        futures = [service.submit(pair) for pair in questions[: 2 * FLUSH]]
        joiner = service.submit(questions[0])
        service.start()
        try:
            first, second = futures[:FLUSH], futures[FLUSH:]
            for future in first + [joiner]:
                assert future.exception(timeout=30.0) is boom
            for future in second:
                assert future.result(timeout=30.0).pair is not None
            later = service.resolve_many(questions[2 * FLUSH :], timeout=30.0)
            assert len(later) == len(questions) - 2 * FLUSH
            assert service._inflight == {}
            assert service.running
        finally:
            service.stop()


    def test_a_failed_plan_phase_fails_its_joiners_too(
        self, beer_dataset, questions, monkeypatch
    ):
        """A flush that raises in its plan phase outside the resolve core
        fails its owners and their in-flight joiners and leaves nothing in
        flight; the consumer keeps serving."""
        service = _service(beer_dataset)
        boom = RuntimeError("plan failed")
        flush_batch = service._flush_batch
        failed = []

        def fail_first_flush(batch):
            if not failed:
                failed.append(batch)
                raise boom
            return flush_batch(batch)

        monkeypatch.setattr(service, "_flush_batch", fail_first_flush)
        futures = [service.submit(pair) for pair in questions[:FLUSH]]
        joiner = service.submit(questions[0])
        service.start()
        try:
            for future in futures + [joiner]:
                assert future.exception(timeout=30.0) is boom
            assert service._inflight == {}
            later = service.resolve_many(questions[:FLUSH], timeout=30.0)
            assert len(later) == FLUSH
        finally:
            service.stop()


class TestAccounting:
    def test_overlapping_tenants_are_each_charged_their_own_flush(
        self, beer_dataset, questions, monkeypatch
    ):
        """Tenant beta's flush completes while tenant alpha's is still in its
        dispatch phase; each is charged exactly its own flush's spend."""
        service = _service(
            beer_dataset,
            tenants=(TenantConfig("alpha", "key-a"), TenantConfig("beta", "key-b")),
        )
        alpha, beta = service.authenticate("key-a"), service.authenticate("key-b")
        alpha_futures = [service.submit(pair, tenant=alpha) for pair in questions[:FLUSH]]
        beta_futures = [
            service.submit(pair, tenant=beta) for pair in questions[FLUSH : 2 * FLUSH]
        ]
        finish = service.resolver.finish
        overlapped = []

        def finish_alpha_after_beta(plan):
            if plan.pairs[0] is questions[0]:
                overlapped.append(
                    _wait_until(lambda: all(future.done() for future in beta_futures))
                )
            return finish(plan)

        monkeypatch.setattr(service.resolver, "finish", finish_alpha_after_beta)
        service.start()
        try:
            for future in alpha_futures + beta_futures:
                future.result(timeout=30.0)
        finally:
            service.stop()
        assert overlapped == [True]

        oracle = Resolver.from_dataset(beer_dataset, BatcherConfig(seed=1))
        spends = []
        for group in (questions[:FLUSH], questions[FLUSH : 2 * FLUSH]):
            plan = oracle.plan(group)
            oracle.finish(plan)
            spends.append(plan.context.spend().total_cost)
        assert spends[0] > 0 and spends[1] > 0
        assert alpha.spent == pytest.approx(spends[0], abs=1e-12)
        assert beta.spent == pytest.approx(spends[1], abs=1e-12)
        assert alpha.spent + beta.spent == pytest.approx(
            service.resolver.cost().total_cost, abs=1e-9
        )

    def test_flush_deadline_reaches_every_model_call(
        self, beer_dataset, questions, monkeypatch
    ):
        """The flush's deadline budget is the ambient deadline of each of its
        model calls on the worker pool, so the retry ladder honours it."""
        service = _service(beer_dataset, num_workers=4, deadline_budget_seconds=30.0)
        seen = []
        complete = service.resolver.llm.complete

        def spy(prompt_text):
            seen.append(current_deadline())
            return complete(prompt_text)

        monkeypatch.setattr(service.resolver.llm, "complete", spy)
        futures = [service.submit(pair) for pair in questions[:FLUSH]]
        service.start()
        try:
            for future in futures:
                future.result(timeout=30.0)
        finally:
            service.stop()
        assert len(seen) == FLUSH // service.config.batcher.batch_size
        assert all(isinstance(deadline, DeadlineBudget) for deadline in seen)
        assert len({id(deadline) for deadline in seen}) == 1


class TestStress:
    def test_many_small_flushes_from_many_threads_lose_no_update(
        self, beer_dataset, questions
    ):
        """Two-pair flushes from eight submitter threads under a tiny switch
        interval: every pair resolves once, the session's pair count is
        exact and the tenants' charges add up to the session's cost."""
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=2,
            max_wait_seconds=0.001,
            tenants=tuple(TenantConfig(f"t{index}", f"k{index}") for index in range(4)),
        )
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        tenants = [service.authenticate(f"k{index}") for index in range(4)]
        results, errors = [], []

        def submit_share(index):
            try:
                tenant = tenants[index % len(tenants)]
                share = [service.submit(pair, tenant=tenant) for pair in questions[index::8]]
                results.extend(future.result(timeout=60.0) for future in share)
            except Exception as error:  # noqa: BLE001 - asserted empty below
                errors.append(error)

        workers = [threading.Thread(target=submit_share, args=(index,)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert sorted(resolution.pair_id for resolution in results) == sorted(
            pair.pair_id for pair in questions
        )
        assert service.resolver.num_resolved == len(questions)
        assert sum(tenant.spent for tenant in tenants) == pytest.approx(
            service.resolver.cost().total_cost, abs=1e-9
        )


class TestTracing:
    def test_dispatch_stages_nest_under_their_flush(self, beer_dataset, questions):
        """The dispatch phase runs on another thread but its stage spans keep
        their flush as an ancestor, and the flush span covers both phases;
        labels are identical with tracing on and off."""
        tracer = Tracer()
        config = ServiceConfig(batcher=BatcherConfig(seed=1), max_batch_size=FLUSH)
        traced = ResolutionService.from_dataset(beer_dataset, config, tracer=tracer)
        untraced = ResolutionService.from_dataset(beer_dataset, config)
        results = []
        for service in (traced, untraced):
            futures = [service.submit(pair) for pair in questions]
            service.start()
            try:
                results.append([future.result(timeout=30.0).to_dict() for future in futures])
            finally:
                service.stop()
        assert results[0] == results[1]

        spans = tracer.finished_spans()
        by_id = {span.span_id: span for span in spans}

        def flush_of(span):
            while span is not None and span.name != "service:flush":
                span = by_id.get(span.parent_id)
            return span

        flushes = [span for span in spans if span.name == "service:flush"]
        assert len(flushes) == len(questions) // FLUSH
        for name in ("stage:featurize", "stage:inference", "stage:parse-answers"):
            stages = [span for span in spans if span.name == name]
            assert len(stages) == len(flushes)
            owners = [flush_of(stage) for stage in stages]
            assert sorted(owner.span_id for owner in owners) == sorted(
                flush.span_id for flush in flushes
            )
            for stage, owner in zip(stages, owners):
                assert owner.started_at <= stage.started_at
                assert stage.ended_at <= owner.ended_at
