"""Tests for the micro-batching ResolutionService facade."""

import json
import threading
import time

import pytest

from repro.core.config import BatcherConfig
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.pipeline import Resolution, Resolver
from repro.service import (
    CostBudgetExceeded,
    ResolutionService,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
)


@pytest.fixture()
def service_config():
    return ServiceConfig(
        batcher=BatcherConfig(seed=1), max_batch_size=16, max_wait_seconds=0.1
    )


@pytest.fixture()
def questions(beer_dataset):
    return [pair.without_label() for pair in list(beer_dataset.splits.test)[:48]]


def _started_service(beer_dataset, config) -> ResolutionService:
    return ResolutionService.from_dataset(beer_dataset, config).start()


class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.max_batch_size >= 1
        assert config.batcher.batching == "diverse"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_batch_size": 0},
            {"max_wait_seconds": -0.1},
            {"queue_capacity": 0},
            {"admission_timeout_seconds": -1.0},
            {"num_workers": 0},
            {"cache_capacity": 0},
            {"cost_budget": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServiceConfig(**overrides)

    def test_dict_roundtrip(self):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=3, batch_size=4),
            max_batch_size=8,
            cost_budget=1.5,
        )
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown service config fields"):
            ServiceConfig.from_dict({"max_batch_sizes": 8})


class TestMicroBatchingAmortization:
    def test_100_concurrent_requests_issue_fewer_llm_calls_than_pairs(
        self, beer_dataset
    ):
        # The acceptance scenario: 100 requests (80 unique + 20 duplicates)
        # submitted concurrently must share batch prompts — far fewer LLM
        # calls than pairs submitted.  The generous max_wait keeps flushes
        # near-full even under slow CI scheduling.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), max_batch_size=16, max_wait_seconds=0.25
        )
        unique = [pair.without_label() for pair in list(beer_dataset.splits.test)[:80]]
        workload = unique + unique[:20]
        service = _started_service(beer_dataset, config)
        try:
            futures = []
            submitted = threading.Barrier(parties=5)

            def submit(chunk):
                submitted.wait(timeout=10.0)
                futures.extend(service.submit(pair) for pair in chunk)

            threads = [
                threading.Thread(target=submit, args=(workload[i * 20 : (i + 1) * 20],))
                for i in range(5)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            resolutions = [future.result(timeout=60.0) for future in futures]
            assert len(resolutions) == 100
            stats = service.stats()
            assert stats.submitted == 100
            assert stats.resolved == 100
            # Strict amortization: well under one call per submitted pair
            # (80 unique pairs in prompt batches of 8 is 10 calls when every
            # flush fills; the bound leaves room for ragged flush boundaries).
            assert stats.llm_calls < 100
            assert stats.llm_calls <= 40
        finally:
            service.stop()

    def test_repeat_requests_hit_cache_with_zero_new_llm_calls(
        self, beer_dataset, service_config, questions
    ):
        service = _started_service(beer_dataset, service_config)
        try:
            first = service.resolve_many(questions)
            calls_after_first = service.stats().llm_calls
            assert calls_after_first > 0
            repeat = service.resolve_many(questions)
            stats = service.stats()
            assert stats.llm_calls == calls_after_first
            assert stats.cache_hits >= len(questions)
            assert [r.label for r in repeat] == [r.label for r in first]
        finally:
            service.stop()

    def test_cached_results_keyed_by_content_not_pair_id(
        self, beer_dataset, service_config, questions
    ):
        service = _started_service(beer_dataset, service_config)
        try:
            original = service.resolve_many(questions[:8])
            renamed = [
                EntityPair(pair_id=f"renamed-{i}", left=p.left, right=p.right)
                for i, p in enumerate(questions[:8])
            ]
            calls_before = service.stats().llm_calls
            re_resolved = service.resolve_many(renamed)
            assert service.stats().llm_calls == calls_before
            assert [r.label for r in re_resolved] == [r.label for r in original]
            assert [r.pair_id for r in re_resolved] == [p.pair_id for p in renamed]
        finally:
            service.stop()

    def test_duplicate_inflight_pairs_share_one_resolution(
        self, beer_dataset, service_config, questions
    ):
        # Submit the same pair many times before starting the consumer: all
        # futures must resolve identically off a single pipeline question.
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        futures = [service.submit(questions[0]) for _ in range(10)]
        futures += [service.submit(pair) for pair in questions[1:9]]
        service.start()
        try:
            resolutions = [future.result(timeout=60.0) for future in futures]
            labels = {r.label for r in resolutions[:10]}
            assert len(labels) == 1
            stats = service.stats()
            assert stats.inflight_joined == 9
            assert stats.flushes == 1  # 9 unique pairs -> one micro-batch
        finally:
            service.stop()

    def test_deterministic_for_fixed_seed(self, beer_dataset, service_config, questions):
        def run_once() -> list[MatchLabel]:
            service = ResolutionService.from_dataset(beer_dataset, service_config)
            futures = [service.submit(pair) for pair in questions]
            service.start()
            try:
                return [future.result(timeout=60.0).label for future in futures]
            finally:
                service.stop()

        assert run_once() == run_once()


class TestEdgeCases:
    def test_empty_request_batch_is_a_noop(self, beer_dataset, service_config):
        service = _started_service(beer_dataset, service_config)
        try:
            assert service.resolve_many([]) == []
            service._flush([], "close")  # a degenerate flush must not raise
            assert service.stats().llm_calls == 0
        finally:
            service.stop()

    def test_duplicate_pair_ids_with_different_content_in_one_flush(
        self, beer_dataset, service_config, questions
    ):
        # Same pair_id, different records: both must be resolved on their own
        # contents (the cache keys on content, never on pair_id).
        clash_a = EntityPair(pair_id="clash", left=questions[0].left, right=questions[0].right)
        clash_b = EntityPair(pair_id="clash", left=questions[1].left, right=questions[1].right)
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        futures = [service.submit(clash_a), service.submit(clash_b)]
        service.start()
        try:
            first, second = [future.result(timeout=60.0) for future in futures]
            assert first.pair_id == second.pair_id == "clash"
            # Each resolution carries the submitter's own pair: the two
            # entries were treated as distinct questions, not collapsed by id.
            assert first.pair is clash_a
            assert second.pair is clash_b
            assert service.stats().flushes == 1
        finally:
            service.stop()

    def test_flush_smaller_than_batch_size(self, beer_dataset, questions):
        # 3 pairs against batcher.batch_size=8: a single undersized prompt
        # batch must still parse (including the 1-question standard-style
        # answer fallback) and resolve every pair.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), max_batch_size=16, max_wait_seconds=0.02
        )
        service = _started_service(beer_dataset, config)
        try:
            resolutions = service.resolve_many(questions[:3])
            assert len(resolutions) == 3
            assert service.stats().llm_calls == 1
        finally:
            service.stop()

    def test_single_pair_flush_still_answered(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        try:
            [resolution] = service.resolve_many(questions[:1])
            assert resolution.answered  # standard-style answer fallback parses
        finally:
            service.stop()


class TestAdmission:
    def test_cost_budget_rejects_new_work_but_serves_cache(
        self, beer_dataset, questions
    ):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=16,
            max_wait_seconds=0.02,
            cost_budget=0.0001,  # exhausted by the first flush
        )
        # Submit the warm-up set before the consumer starts, so admission sees
        # an unspent budget for all eight and the budget is only exhausted by
        # the flush itself.
        service = ResolutionService.from_dataset(beer_dataset, config)
        futures = [service.submit(pair) for pair in questions[:8]]
        service.start()
        try:
            warm = [future.result(timeout=60.0) for future in futures]
            assert len(warm) == 8
            with pytest.raises(CostBudgetExceeded, match="budget"):
                service.submit(questions[20])
            # Cached pairs are still served after exhaustion.
            cached = service.resolve_many(questions[:8])
            assert [r.label for r in cached] == [r.label for r in warm]
            assert service.stats().rejected_budget == 1
        finally:
            service.stop()

    def test_overload_rejected_with_backpressure(self, beer_dataset, questions):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=4,
            queue_capacity=4,
            admission_timeout_seconds=0.02,
        )
        # Consumer never started: the queue fills and stays full.
        service = ResolutionService.from_dataset(beer_dataset, config)
        for pair in questions[:4]:
            service.submit(pair)
        with pytest.raises(ServiceOverloaded, match="queue full"):
            service.submit(questions[4])
        assert service.stats().rejected_overload == 1
        assert service.stats().queue_depth == 4
        service.start()
        try:
            service.resolve_many(questions[5:7])  # drained queue admits again
        finally:
            service.stop()

    def test_overload_fails_joined_duplicate_futures(self, beer_dataset, questions):
        # A duplicate that joined an in-flight request must not hang forever
        # when the original submission is rejected by backpressure.
        import time as time_module

        from repro.service import pair_fingerprint

        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            queue_capacity=1,
            admission_timeout_seconds=0.5,
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        service.submit(questions[0])  # fills the queue (consumer not started)
        errors: list[Exception] = []

        def blocked_submit():
            try:
                service.submit(questions[1])
            except ServiceOverloaded as error:
                errors.append(error)

        blocker = threading.Thread(target=blocked_submit)
        blocker.start()
        # The blocked submitter registers its in-flight entry *before* it
        # blocks on the full queue; wait for that, then join it.
        fingerprint = pair_fingerprint(questions[1])
        deadline = time_module.monotonic() + 5.0
        while fingerprint not in service._inflight:
            assert time_module.monotonic() < deadline, "in-flight entry never appeared"
            time_module.sleep(0.005)
        joined = service.submit(questions[1])
        blocker.join(timeout=5.0)
        assert errors, "the blocked submitter must be rejected"
        with pytest.raises(ServiceOverloaded):
            joined.result(timeout=5.0)

    def test_unanswered_resolutions_are_not_cached(self, beer_dataset, service_config):
        from repro.llm.simulated import SimulatedLLM

        class MuteLLM(SimulatedLLM):
            def _generate(self, prompt_text):
                return "I would rather not say."  # never parseable

        resolver = Resolver(
            config=service_config.batcher,
            demonstrations=list(beer_dataset.splits.train),
            attributes=beer_dataset.attributes,
            llm=MuteLLM("gpt-3.5-03", seed=1),
        )
        service = ResolutionService(config=service_config, resolver=resolver).start()
        try:
            questions = [p.without_label() for p in list(beer_dataset.splits.test)[:4]]
            first = service.resolve_many(questions)
            assert all(not r.answered for r in first)
            calls_after_first = service.stats().llm_calls
            service.resolve_many(questions)  # must retry, not serve fallbacks
            assert service.stats().llm_calls > calls_after_first
            assert len(service.cache) == 0
        finally:
            service.stop()

    def test_budget_exhaustion_still_joins_inflight_duplicates(
        self, beer_dataset, questions
    ):
        # In-flight joins cost no new LLM work, so they are admitted even
        # once the budget is spent.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=16,
            max_wait_seconds=0.02,
            cost_budget=0.0001,
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        pending = service.submit(questions[0])  # in flight (consumer not started)
        # Exhaust the budget on the shared session behind the service's back.
        service.resolver.resolve(questions[8:16])
        assert service.resolver.cost().total_cost > config.cost_budget
        with pytest.raises(CostBudgetExceeded):
            service.submit(questions[1])  # new work: rejected
        duplicate = service.submit(questions[0])  # join: still admitted
        service.start()
        try:
            assert pending.result(timeout=60.0).label is duplicate.result(
                timeout=60.0
            ).label
            assert service.stats().inflight_joined == 1
        finally:
            service.stop()

    def test_submit_after_stop_rejected(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        service.stop()
        with pytest.raises(ServiceClosed):
            service.submit(questions[0])
        with pytest.raises(ServiceClosed):
            service.start()


class TestServiceLifecycle:
    def test_context_manager_starts_and_stops(self, beer_dataset, service_config, questions):
        with ResolutionService.from_dataset(beer_dataset, service_config) as service:
            assert service.running
            assert service.resolve_many(questions[:4])
        assert not service.running

    def test_start_warms_resolver_pool(self, beer_dataset, service_config):
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        assert service.resolver._pool_features_cache is None
        service.start()
        try:
            assert service.resolver._pool_features_cache is not None
        finally:
            service.stop()

    def test_spill_and_warm_start_across_restarts(
        self, beer_dataset, service_config, questions, tmp_path
    ):
        spill = str(tmp_path / "service-cache.jsonl")
        config = service_config.with_overrides(spill_path=spill)
        first_service = _started_service(beer_dataset, config)
        first = first_service.resolve_many(questions[:8])
        first_service.stop()  # spills the cache

        second_service = _started_service(beer_dataset, config)
        try:
            revived = second_service.resolve_many(questions[:8])
            assert second_service.stats().llm_calls == 0  # pure warm-start hits
            assert [r.label for r in revived] == [r.label for r in first]
        finally:
            second_service.stop()

    def test_cancelled_future_does_not_kill_the_consumer(
        self, beer_dataset, service_config, questions
    ):
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        doomed = service.submit(questions[0])
        assert doomed.cancel()  # pending future: cancellation succeeds
        service.start()
        try:
            # The flush containing the cancelled future must not crash the
            # consumer; later submissions still resolve normally.
            survivors = service.resolve_many(questions[1:5])
            assert len(survivors) == 4
            assert service.running
        finally:
            service.stop()

    def test_stop_before_start_does_not_truncate_spill_file(
        self, beer_dataset, service_config, questions, tmp_path
    ):
        spill = tmp_path / "cache.jsonl"
        config = service_config.with_overrides(spill_path=str(spill))
        seeded = _started_service(beer_dataset, config)
        seeded.resolve_many(questions[:8])
        seeded.stop()
        persisted = spill.read_text(encoding="utf-8")
        assert persisted.strip()
        # A service that never started (e.g. failed setup cleaned up via
        # stop()) must not overwrite the previous session's cache.
        ResolutionService.from_dataset(beer_dataset, config).stop()
        assert spill.read_text(encoding="utf-8") == persisted

    def test_stats_snapshot_shape(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        try:
            service.resolve_many(questions[:8])
            stats = service.stats()
            assert stats.resolved == 8
            assert stats.pool_size == service.resolver.pool_size
            assert stats.uptime_seconds > 0
            assert stats.throughput_pairs_per_second > 0
            payload = stats.to_dict()
            assert payload["cost"]["total_cost"] == pytest.approx(
                service.resolver.cost().total_cost
            )
            assert 0.0 <= payload["cache_hit_rate"] <= 1.0
        finally:
            service.stop()

    def test_planner_routes_report_the_exact_and_lsh_regimes(
        self, beer_dataset, service_config, questions
    ):
        service = _started_service(beer_dataset, service_config)
        try:
            service.resolve_many(questions[:8])
            planning = service.stats().to_dict()["feature_store"]["planning"]
            assert planning["sparse_graphs"] > 0
            assert not {"dense_graphs", "dense_radii"} & set(planning)
            routes = service.metrics.get("repro_planner_route_total")
            assert routes.value(regime="sparse") == planning["sparse_graphs"]
            assert routes.value(regime="lsh") == planning["lsh_graphs"]
            assert 'regime="dense"' not in service.metrics.render()
        finally:
            service.stop()

    def test_shared_resolver_session_is_exposed(self, beer_dataset, service_config, questions):
        resolver = Resolver.from_dataset(beer_dataset, service_config.batcher)
        service = ResolutionService(config=service_config, resolver=resolver).start()
        try:
            resolutions = service.resolve_many(questions[:4])
            assert all(isinstance(r, Resolution) for r in resolutions)
            assert service.resolver is resolver
            assert resolver.num_resolved == 4
        finally:
            service.stop()


class TestBulkResolve:
    def test_bulk_resolves_in_input_order(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        try:
            resolutions = service.resolve_bulk(questions)
            assert [r.pair_id for r in resolutions] == [p.pair_id for p in questions]
            assert all(isinstance(r, Resolution) for r in resolutions)
        finally:
            service.stop()

    def test_bulk_ticks_engine_counters(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        try:
            service.resolve_bulk(questions, shards=3)
            engine = service.stats().engine
            assert engine.bulk_requests == 1
            assert engine.bulk_pairs == len(questions)
            assert 1 <= engine.shards_resolved <= 3
            assert engine.pairs_resolved == len(questions)
            payload = service.stats().to_dict()["engine"]
            assert payload["bulk_pairs"] == len(questions)
        finally:
            service.stop()

    def test_repeat_bulk_is_served_from_cache(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        try:
            service.resolve_bulk(questions)
            calls_before = service.resolver.usage.num_calls
            again = service.resolve_bulk(questions)
            assert service.resolver.usage.num_calls == calls_before
            assert len(again) == len(questions)
            assert service.stats().engine.pairs_from_cache >= len(
                [r for r in again if r.answered]
            )
        finally:
            service.stop()

    def test_bulk_deduplicates_within_one_submission(
        self, beer_dataset, service_config, questions
    ):
        service = _started_service(beer_dataset, service_config)
        try:
            doubled = questions[:8] + questions[:8]
            resolutions = service.resolve_bulk(doubled)
            assert len(resolutions) == 16
            # Duplicate contents resolve identically and are only paid once.
            for first, second in zip(resolutions[:8], resolutions[8:]):
                assert first.label == second.label
            assert service.stats().engine.pairs_resolved <= 8
        finally:
            service.stop()

    def test_bulk_sharding_does_not_change_labels(
        self, beer_dataset, service_config, questions
    ):
        one = _started_service(beer_dataset, service_config)
        try:
            single = [int(r.label) for r in one.resolve_bulk(questions, shards=1)]
        finally:
            one.stop()
        # Shard composition changes which pairs share a prompt, so labels may
        # legitimately differ between shard counts -- but each shard count must
        # be deterministic.
        many = _started_service(beer_dataset, service_config)
        try:
            first = [int(r.label) for r in many.resolve_bulk(questions, shards=4)]
        finally:
            many.stop()
        again = _started_service(beer_dataset, service_config)
        try:
            second = [int(r.label) for r in again.resolve_bulk(questions, shards=4)]
        finally:
            again.stop()
        assert first == second
        assert len(single) == len(first) == len(questions)

    def test_bulk_respects_the_cost_budget(self, beer_dataset, questions):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), max_batch_size=16, cost_budget=1e-9
        )
        service = _started_service(beer_dataset, config)
        try:
            # Admission checks *recorded* cost, so the first (cheap) bulk call
            # is admitted and exhausts the tiny budget...
            spent = service.resolve_bulk(questions[:2])
            assert len(spent) == 2
            # ...after which new uncached work is rejected, while already
            # cached contents still resolve.
            with pytest.raises(CostBudgetExceeded):
                service.resolve_bulk(questions[2:])
            cached_again = service.resolve_bulk(questions[:2])
            assert [int(r.label) for r in cached_again] == [int(r.label) for r in spent]
        finally:
            service.stop()

    def test_bulk_joins_inflight_pairs_instead_of_repaying(
        self, beer_dataset, service_config, questions
    ):
        """A pair already pending on the micro-batch path must not be paid for
        again by a bulk request — the bulk path joins the in-flight
        resolution."""
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        # Queue a pair before the consumer starts: it stays in-flight.
        pending_future = service.submit(questions[0])
        joined_before = service.stats().inflight_joined
        bulk_done = []

        def run_bulk():
            bulk_done.append(service.resolve_bulk(questions[:4]))

        worker = threading.Thread(target=run_bulk)
        worker.start()
        # The bulk call blocks on the joined future until the consumer runs.
        service.start()
        worker.join(timeout=30.0)
        try:
            assert not worker.is_alive()
            [bulk_resolutions] = bulk_done
            assert bulk_resolutions[0].label == pending_future.result(timeout=10.0).label
            stats = service.stats()
            assert stats.inflight_joined == joined_before + 1
            # The joined pair was not resolved twice: bulk resolved only the
            # three pairs that were not already in flight.
            assert stats.engine.pairs_resolved == 3
        finally:
            service.stop()

    def test_bulk_enforces_a_per_shard_ceiling(self, beer_dataset, questions):
        """An explicit low shard count must not produce one giant
        lock-holding shard: the engine raises the count so no shard exceeds
        batch_size**2 pairs."""
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=2), max_batch_size=16
        )
        service = _started_service(beer_dataset, config)
        try:
            service.resolve_bulk(questions[:20], shards=1)  # ceiling = 4 pairs
            assert service.stats().engine.shards_resolved >= 5
        finally:
            service.stop()

    def test_bulk_budget_is_rechecked_between_shards(self, beer_dataset, questions):
        """One oversized bulk request must not blow arbitrarily past the
        budget: the check runs per shard, so the overshoot is bounded by one
        shard and already-resolved shards stay cached."""
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), max_batch_size=16, cost_budget=1e-9
        )
        service = _started_service(beer_dataset, config)
        try:
            with pytest.raises(CostBudgetExceeded):
                service.resolve_bulk(questions, shards=4)
            resolved = service.stats().engine.pairs_resolved
            assert 0 < resolved < len(questions)  # stopped after one shard
        finally:
            service.stop()

    def test_bulk_counters_reflect_completed_work_only(self, beer_dataset, questions):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), max_batch_size=16, cost_budget=1e-9
        )
        service = _started_service(beer_dataset, config)
        try:
            with pytest.raises(CostBudgetExceeded):
                service.resolve_bulk(questions, shards=4)
            engine = service.stats().engine
            # Only the shard that actually resolved is counted.
            assert engine.shards_resolved == 1
            assert engine.pairs_resolved < len(questions)
        finally:
            service.stop()

    def test_bulk_after_stop_is_rejected(self, beer_dataset, service_config, questions):
        service = _started_service(beer_dataset, service_config)
        service.stop()
        with pytest.raises(ServiceClosed):
            service.resolve_bulk(questions)

    def test_empty_bulk_is_a_noop(self, beer_dataset, service_config):
        service = _started_service(beer_dataset, service_config)
        try:
            assert service.resolve_bulk([]) == []
        finally:
            service.stop()


def _exposition_value(text: str, key: str) -> float:
    """The ``/metrics`` sample ``key`` (``name{labels}``), or the sum of a
    whole family when ``key`` is a bare family name."""
    values = [
        float(value)
        for series, _, value in (
            line.rpartition(" ") for line in text.splitlines() if not line.startswith("#")
        )
        if series == key or series.partition("{")[0] == key
    ]
    assert values, f"no /metrics sample for {key!r}"
    return sum(values)


#: Every integer counter of ``GET /stats`` and the ``/metrics`` sample (or
#: family total) it must equal.
STATS_TO_METRICS = {
    "submitted": "repro_service_submitted_total",
    "resolved": "repro_service_resolved_total",
    "cache_hits": "repro_cache_hits_total",
    "cache_misses": "repro_cache_misses_total",
    "cache_size": "repro_cache_size",
    "inflight_joined": "repro_service_inflight_joined_total",
    "rejected_overload": 'repro_service_rejected_total{reason="overload"}',
    "rejected_budget": 'repro_service_rejected_total{reason="budget"}',
    "rejected_degraded": 'repro_service_rejected_total{reason="degraded"}',
    "queue_depth": "repro_queue_depth",
    "flushes": "repro_service_flushes_total",
    "llm_calls": "repro_llm_calls_total",
    "engine.bulk_requests": "repro_service_bulk_requests_total",
    "engine.bulk_pairs": "repro_service_bulk_pairs_total",
    "engine.shards_resolved": "repro_service_bulk_shards_total",
    "engine.pairs_from_cache": 'repro_service_bulk_pairs_served_total{source="cache"}',
    "engine.pairs_resolved": 'repro_service_bulk_pairs_served_total{source="live"}',
}
#: Session sizes, not event counters: they have no metric family.
NOT_EXPOSED = {"pool_size", "num_labeled"}


def _int_counters(payload: dict) -> dict[str, int]:
    counters = {
        key: value
        for key, value in payload.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }
    counters.update({f"engine.{key}": value for key, value in payload["engine"].items()})
    return counters


class TestOneSourceOfCounters:
    def test_bulk_join_does_not_inflate_resolved(self, beer_dataset, service_config, questions):
        """``resolved`` counts futures returned by submit(); a bulk request
        joining the same in-flight pair is counted on the engine path."""
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        pending = service.submit(questions[0])  # queued: consumer not started
        bulk = []
        worker = threading.Thread(
            target=lambda: bulk.append(service.resolve_bulk([questions[0]]))
        )
        worker.start()
        for _ in range(500):
            if service.stats().inflight_joined == 1:
                break
            time.sleep(0.01)
        assert service.stats().inflight_joined == 1, "bulk never joined"
        service.start()
        try:
            worker.join(timeout=30.0)
            assert bulk and bulk[0][0].label == pending.result(timeout=10.0).label
            stats = service.stats()
            assert (stats.submitted, stats.resolved, stats.inflight_joined) == (1, 1, 1)
            assert stats.engine.pairs_from_cache == 1
            assert stats.engine.pairs_resolved == 0
        finally:
            service.stop()

    def test_stats_and_metrics_surfaces_agree(self, beer_dataset, questions):
        from repro.data.schema import MatchLabel
        from repro.engines.faults import FakeClock
        from repro.resilience import BreakerConfig, CircuitBreaker
        from repro.service import CachedResult, ServiceDegraded, pair_fingerprint
        from repro.service.http import ServiceRouter

        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_seconds=60.0),
            clock=FakeClock(),
            name="test-backend",
        )
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=8,
            max_wait_seconds=0.02,
            queue_capacity=2,
            admission_timeout_seconds=0.0,
            cost_budget=1e-9,  # spent by the first live resolution
        )
        service = ResolutionService.from_dataset(beer_dataset, config, breaker=breaker)
        cached = questions[4]
        service.cache.put(
            pair_fingerprint(cached), CachedResult(label=MatchLabel.MATCH, answered=True)
        )
        service.submit(cached)  # cache hit
        service.submit(questions[0])  # queued
        service.submit(questions[0])  # in-flight join
        service.submit(questions[1])  # queued: the queue is now full
        with pytest.raises(ServiceOverloaded):
            service.submit(questions[2])
        # One bulk request: a cached pair, a live pair twice, another live one.
        service.resolve_bulk([cached, questions[5], questions[5], questions[6]])
        with pytest.raises(CostBudgetExceeded):
            service.submit(questions[7])
        breaker.record_failure()  # trips: new work is refused as degraded
        with pytest.raises(ServiceDegraded):
            service.submit(questions[8])
        service.start()
        service.stop()  # drains the queued flush

        router = ServiceRouter(service)
        payload = json.loads(router.handle("GET", "/stats", {}).body)
        exposition = router.handle("GET", "/metrics", {}).body.decode("utf-8")
        counters = _int_counters(payload)
        assert set(counters) - NOT_EXPOSED == set(STATS_TO_METRICS)
        for key, sample in STATS_TO_METRICS.items():
            assert counters[key] == _exposition_value(exposition, sample), key
        assert _exposition_value(exposition, "repro_service_degraded_total") == 1
        # The mix touched every event counter it claims to.
        assert {
            key: counters[key]
            for key in (
                "submitted",
                "resolved",
                "inflight_joined",
                "rejected_overload",
                "rejected_budget",
                "rejected_degraded",
                "engine.pairs_from_cache",
                "engine.pairs_resolved",
            )
        } == {
            "submitted": 4,
            "resolved": 4,
            "inflight_joined": 1,
            "rejected_overload": 1,
            "rejected_budget": 1,
            "rejected_degraded": 1,
            "engine.pairs_from_cache": 2,
            "engine.pairs_resolved": 2,
        }

    def test_transport_stats_survive_a_registry_rebind(self):
        from repro.engines.faults import FakeClock, ScriptedTransport
        from repro.engines.transport import (
            RetryingTransport,
            RetryPolicy,
            TransportRequest,
        )
        from repro.observability import MetricsRegistry

        clock = FakeClock()
        transport = RetryingTransport(
            ScriptedTransport([503, {"ok": 1}, 429, {"ok": 2}]),
            policy=RetryPolicy(base_delay=0.1, jitter=0.0),
            clock=clock,
        )
        request = TransportRequest(url="http://backend", payload={})
        transport.send(request)
        bound = MetricsRegistry(clock)
        transport.bind_observability(metrics=bound)
        transport.send(request)

        def family(name: str, **labels: str) -> int:
            return int(bound.get(f"repro_transport_{name}_total").value(**labels))

        retries = sum(
            value for _, value in bound.get("repro_transport_retries_total").samples()
        )
        stats = transport.stats()
        assert {key: stats[key] for key in ("requests", "attempts", "retries", "failures")} == {
            "requests": family("requests"),
            "attempts": family("attempts"),
            "retries": retries,
            "failures": family("failures"),
        } == {"requests": 2, "attempts": 4, "retries": 2, "failures": 0}
        assert family("retries", reason="5xx") == family("retries", reason="429") == 1
