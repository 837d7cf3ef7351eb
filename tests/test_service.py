"""Tests for the micro-batching ResolutionService facade."""

import json
import re
import sys
import threading
import time

import pytest

from repro.core.config import BatcherConfig
from repro.data.fingerprint import pair_fingerprint
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.engines.faults import FakeClock
from repro.pipeline import Resolution, Resolver
from repro.resilience import BreakerConfig, CircuitBreaker
from repro.service import (
    CostBudgetExceeded,
    ResolutionService,
    ServiceClosed,
    ServiceConfig,
    ServiceDegraded,
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


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _gate_resolve(monkeypatch, service, error: Exception | None = None):
    """Make the session's plan phase (``Resolver.plan``, which every flush
    and bulk chunk runs first) block until released (then raise ``error``,
    if given).  Returns the fingerprints it was asked to resolve, an event
    set on entry, and the release event."""
    seen: list[str] = []
    entered, release = threading.Event(), threading.Event()
    plan = service.resolver.plan

    def gated(pairs):
        pairs = list(pairs)
        seen.extend(pair_fingerprint(pair) for pair in pairs)
        entered.set()
        release.wait(30.0)
        if error is not None:
            raise error
        return plan(pairs)

    monkeypatch.setattr(service.resolver, "plan", gated)
    return seen, entered, release


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

    def test_stop_spills_judgements_only(
        self, beer_dataset, service_config, questions, tmp_path
    ):
        spill = tmp_path / "cache.jsonl"
        config = service_config.with_overrides(spill_path=str(spill))
        service = _started_service(beer_dataset, config)
        resolutions = service.resolve_many(questions[:8])
        service.stop()
        entries = [json.loads(line) for line in spill.read_text().splitlines()]
        assert all(sorted(entry) == ["answered", "fingerprint", "label"] for entry in entries)
        labels = {entry["fingerprint"]: entry["label"] for entry in entries}
        assert [labels[pair_fingerprint(pair)] for pair in questions[:8]] == [
            int(resolution.label) for resolution in resolutions
        ]

    def test_warm_start_from_a_vector_carrying_spill(
        self, beer_dataset, service_config, questions, tmp_path
    ):
        # Earlier releases spilled feature vectors and an extractor tag next
        # to each judgement: the judgements still serve, and the next spill
        # rewrites the file without the extra fields.
        spill = tmp_path / "cache.jsonl"
        labels = [MatchLabel.MATCH, MatchLabel.NON_MATCH] * 2
        spill.write_text(
            "".join(
                json.dumps(
                    {
                        "fingerprint": pair_fingerprint(pair),
                        "label": int(label),
                        "answered": True,
                        "vector": [0.5] * len(beer_dataset.attributes),
                        "extractor": "structure-lr/('name',)",
                    }
                )
                + "\n"
                for pair, label in zip(questions[:4], labels)
            )
        )
        config = service_config.with_overrides(spill_path=str(spill))
        service = _started_service(beer_dataset, config)
        try:
            revived = service.resolve_many(questions[:4])
            assert service.stats().llm_calls == 0
            assert [resolution.label for resolution in revived] == labels
        finally:
            service.stop()
        entries = [json.loads(line) for line in spill.read_text().splitlines()]
        assert len(entries) == 4
        assert all("vector" not in entry and "extractor" not in entry for entry in entries)

    def test_session_without_a_schema_keeps_every_spilled_entry(
        self, beer_dataset, service_config, questions, tmp_path
    ):
        spill = tmp_path / "cache.jsonl"
        config = service_config.with_overrides(spill_path=str(spill))
        seeded = _started_service(beer_dataset, config)
        first = seeded.resolve_many(questions[:4])
        seeded.stop()
        persisted = sorted(spill.read_text().splitlines())

        # No demonstrations and no attributes: the session never builds a
        # feature store, yet it serves and re-spills every judgement.
        late = ResolutionService(config).start()
        try:
            assert late.resolver.feature_store is None
            revived = late.resolve_many(questions[:4])
            assert [r.label for r in revived] == [r.label for r in first]
            assert late.stats().llm_calls == 0
        finally:
            late.stop()
        assert sorted(spill.read_text().splitlines()) == persisted

    def test_spill_serves_another_extractor_variant(
        self, beer_dataset, service_config, questions, tmp_path
    ):
        # A spill holds judgements keyed by pair contents, so a session
        # featurizing with another extractor still serves them.
        spill = str(tmp_path / "cache.jsonl")
        lr_config = service_config.with_overrides(
            spill_path=spill, batcher=BatcherConfig(seed=1, feature_extractor="lr")
        )
        seeded = _started_service(beer_dataset, lr_config)
        first = seeded.resolve_many(questions[:4])
        seeded.stop()

        jaccard_config = lr_config.with_overrides(
            batcher=BatcherConfig(seed=1, feature_extractor="jaccard")
        )
        restarted = _started_service(beer_dataset, jaccard_config)
        try:
            revived = restarted.resolve_many(questions[:4])
            assert restarted.stats().llm_calls == 0
            assert [r.label for r in revived] == [r.label for r in first]
        finally:
            restarted.stop(spill=False)

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

    def test_planner_routes_report_only_the_exact_regime(
        self, beer_dataset, service_config, questions
    ):
        service = _started_service(beer_dataset, service_config)
        try:
            service.resolve_many(questions[:8])
            planning = service.stats().to_dict()["feature_store"]["planning"]
            assert planning["sparse_graphs"] > 0
            assert {"sparse_graphs", "cross_joins", "edges_built"} <= set(planning)
            assert not {"dense_graphs", "dense_radii"} & set(planning)
            assert not [key for key in planning if key.startswith("lsh_")]
            routes = service.metrics.get("repro_planner_route_total")
            assert routes.value(regime="sparse") == planning["sparse_graphs"]
            rendered = service.metrics.render()
            assert 'regime="dense"' not in rendered
            assert 'regime="lsh"' not in rendered
            assert "repro_planner_lsh_candidates_total" not in rendered
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

    def test_bulk_ticks_engine_counters(self, beer_dataset, questions):
        config = ServiceConfig(batcher=BatcherConfig(seed=1, batch_size=4), max_batch_size=16)
        service = _started_service(beer_dataset, config)
        try:
            service.resolve_bulk(questions)  # 48 pairs in chunks of 4**2
            engine = service.stats().engine
            assert engine.bulk_requests == 1
            assert engine.bulk_pairs == len(questions)
            assert engine.shards_resolved == 3
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
        """A submission of at most batch_size**2 distinct pairs is one chunk,
        resolved exactly as one ``Resolver.resolve`` call in first-seen order;
        a multi-chunk submission is deterministic."""
        one = _started_service(beer_dataset, service_config)
        try:
            single = [int(r.label) for r in one.resolve_bulk(questions + questions[:8])]
        finally:
            one.stop()
        direct = Resolver.from_dataset(beer_dataset, service_config.batcher)
        assert single[: len(questions)] == [int(r.label) for r in direct.resolve(questions)]
        assert single[len(questions) :] == single[:8]
        # Chunk composition changes which pairs share a prompt, so labels may
        # legitimately differ between chunk sizes -- but each must be
        # deterministic.
        chunked = ServiceConfig(batcher=BatcherConfig(seed=1, batch_size=4), max_batch_size=16)
        labels = []
        for _ in range(2):
            many = _started_service(beer_dataset, chunked)
            try:
                labels.append([int(r.label) for r in many.resolve_bulk(questions)])
                assert many.stats().engine.shards_resolved == 3
            finally:
                many.stop()
        assert labels[0] == labels[1]
        assert len(labels[0]) == len(questions)

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

    def test_submit_and_bulk_join_a_running_bulk_chunk(
        self, beer_dataset, service_config, questions, monkeypatch
    ):
        """A pair that a bulk chunk is resolving sits in the in-flight table:
        a submit() and a second bulk call of it join, and it is paid once."""
        service = _started_service(beer_dataset, service_config)
        seen, entered, release = _gate_resolve(monkeypatch, service)
        results = {}
        workers = [
            threading.Thread(
                target=lambda: results.update(first=service.resolve_bulk(questions[:4]))
            ),
            threading.Thread(
                target=lambda: results.update(second=service.resolve_bulk([questions[0]]))
            ),
        ]
        workers[0].start()
        try:
            assert entered.wait(10.0)
            joined_before = service.stats().inflight_joined
            submitted = service.submit(questions[0])
            workers[1].start()
            joined_both = _wait_until(
                lambda: service.stats().inflight_joined == joined_before + 2
            )
        finally:
            release.set()
            for worker in workers:
                if worker.ident is not None:
                    worker.join(timeout=30.0)
        try:
            assert not any(worker.is_alive() for worker in workers)
            assert joined_both, "the submit and the second bulk call did not both join"
            label = results["first"][0].label
            assert submitted.result(timeout=10.0).label == label
            assert results["second"][0].label == label
            assert seen.count(pair_fingerprint(questions[0])) == 1
            assert service.stats().inflight_joined == joined_before + 2
        finally:
            service.stop()

    def test_failed_bulk_chunk_fails_its_joiners(
        self, beer_dataset, service_config, questions, monkeypatch
    ):
        """When the session raises inside a bulk chunk, the bulk call raises
        it, a submit() that joined the chunk gets the same error instead of
        hanging, and nothing is left in flight."""
        service = _started_service(beer_dataset, service_config)
        boom = RuntimeError("backend down")
        _, entered, release = _gate_resolve(monkeypatch, service, error=boom)
        outcome = {}

        def run_bulk():
            try:
                service.resolve_bulk(questions[:4])
            except RuntimeError as error:
                outcome["error"] = error

        worker = threading.Thread(target=run_bulk)
        worker.start()
        try:
            assert entered.wait(10.0)
            joined = service.submit(questions[1])
        finally:
            release.set()
            worker.join(timeout=30.0)
        try:
            assert not worker.is_alive()
            assert outcome["error"] is boom
            assert joined.exception(timeout=10.0) is boom
            assert service._inflight == {}
        finally:
            service.stop()

    @pytest.mark.parametrize("reason", ["budget", "degraded"])
    def test_rejected_bulk_chunk_registers_nothing(
        self, beer_dataset, questions, monkeypatch, reason
    ):
        """Admission runs before a chunk registers its pairs: a rejection at
        chunk 2 keeps chunk 1's work and leaves nothing in flight."""
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_seconds=60.0), clock=FakeClock()
        )
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=2),
            max_batch_size=16,
            cost_budget=1e-9 if reason == "budget" else None,
        )
        service = ResolutionService.from_dataset(beer_dataset, config, breaker=breaker)
        service.start()
        if reason == "degraded":
            finish = service.resolver.finish

            def finish_then_trip(plan):
                resolutions = finish(plan)
                breaker.record_failure()  # opens: the next chunk is refused
                return resolutions

            monkeypatch.setattr(service.resolver, "finish", finish_then_trip)
        expected = CostBudgetExceeded if reason == "budget" else ServiceDegraded
        try:
            with pytest.raises(expected):
                service.resolve_bulk(questions[:12])  # 3 chunks of 2**2
            assert service._inflight == {}
            engine = service.stats().engine
            assert (engine.shards_resolved, engine.pairs_resolved) == (1, 4)
        finally:
            service.stop()

    def test_bulk_chunk_rechecks_the_cache_after_registering(
        self, beer_dataset, questions, monkeypatch
    ):
        """A pair cached elsewhere between the bulk call's up-front cache
        lookup and its chunk's registration is served from the cache, never
        paid again."""
        from repro.service import CachedResult

        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=2), max_batch_size=16
        )
        service = _started_service(beer_dataset, config)
        seen, _, release = _gate_resolve(monkeypatch, service)
        release.set()
        late = questions[5]  # in the second chunk of 2**2 pairs
        admit = service._admit_new_work
        chunks = []

        def admit_then_cache_late(tenant):
            admit(tenant)
            chunks.append(tenant)
            if len(chunks) == 2:  # chunk 2, before it registers its pairs
                service.cache.put(
                    pair_fingerprint(late),
                    CachedResult(label=MatchLabel.MATCH, answered=True),
                )

        monkeypatch.setattr(service, "_admit_new_work", admit_then_cache_late)
        try:
            resolutions = service.resolve_bulk(questions[:8])
            assert len(chunks) == 2
            assert pair_fingerprint(late) not in seen
            assert resolutions[5].label is MatchLabel.MATCH
            assert service.stats().engine.pairs_resolved == 7
            assert service._inflight == {}
        finally:
            service.stop()

    def test_racing_bulk_and_submit_pay_each_pair_once(
        self, beer_dataset, questions, monkeypatch
    ):
        """Bulk calls and submits racing over overlapping pairs share one
        in-flight table: no answered pair reaches the session twice, and
        every answered copy of a pair carries the same label."""
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=2),
            max_batch_size=4,
            max_wait_seconds=0.005,
        )
        service = _started_service(beer_dataset, config)
        seen, _, release = _gate_resolve(monkeypatch, service)
        release.set()
        pool = questions[:24]
        results, errors = [], []

        def run(call, *args):
            try:
                results.append(call(*args))
            except Exception as error:  # noqa: BLE001 - asserted empty below
                errors.append(error)

        workers = [
            threading.Thread(
                target=run, args=(service.resolve_bulk, pool[5 * i :] + pool[: 5 * i])
            )
            for i in range(4)
        ] + [
            threading.Thread(target=run, args=(service.resolve_many, pool[i::3]))
            for i in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(worker.is_alive() for worker in workers)
            assert errors == []
            labels: dict[str, MatchLabel] = {}
            for resolutions in results:
                for resolution in resolutions:
                    if resolution.answered:
                        first = labels.setdefault(resolution.pair_id, resolution.label)
                        assert resolution.label is first
            answered = {fingerprint for fingerprint in seen if fingerprint in service.cache}
            assert answered, "no pair was answered"
            assert all(seen.count(fingerprint) == 1 for fingerprint in answered)
            assert service._inflight == {}
        finally:
            service.stop()

    def test_bulk_enforces_a_per_shard_ceiling(self, beer_dataset, questions):
        """A large submission must not become one giant lock-holding
        resolve: no chunk exceeds batch_size**2 pairs."""
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=2), max_batch_size=16
        )
        service = _started_service(beer_dataset, config)
        try:
            service.resolve_bulk(questions[:20])  # ceiling = 4 pairs
            assert service.stats().engine.shards_resolved == 5
        finally:
            service.stop()

    def test_bulk_budget_is_rechecked_between_shards(self, beer_dataset, questions):
        """One oversized bulk request must not blow arbitrarily past the
        budget: the check runs per chunk, so the overshoot is bounded by one
        chunk and already-resolved chunks stay cached."""
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=4), max_batch_size=16, cost_budget=1e-9
        )
        service = _started_service(beer_dataset, config)
        try:
            with pytest.raises(CostBudgetExceeded):
                service.resolve_bulk(questions)  # 3 chunks of 16
            resolved = service.stats().engine.pairs_resolved
            assert 0 < resolved < len(questions)  # stopped after one shard
        finally:
            service.stop()

    def test_bulk_counters_reflect_completed_work_only(self, beer_dataset, questions):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1, batch_size=4), max_batch_size=16, cost_budget=1e-9
        )
        service = _started_service(beer_dataset, config)
        try:
            with pytest.raises(CostBudgetExceeded):
                service.resolve_bulk(questions)  # 3 chunks of 16
            engine = service.stats().engine
            # Only the chunk that actually resolved is counted.
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


#: One Prometheus text-exposition sample line: ``name{labels} value``.
_SAMPLE_LINE = re.compile(r"[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? [^ ]+")


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
        assert _exposition_value(exposition, "repro_cache_hit_rate") > 0
        assert _exposition_value(exposition, "repro_cache_hit_rate") == pytest.approx(
            service.cache.hit_rate
        )
        assert "repro_feature_store" not in exposition
        # A simulated backend has no transport: its retry family renders at 0.
        assert _exposition_value(exposition, "repro_transport_retries_total") == 0
        samples = [line for line in exposition.splitlines() if not line.startswith("#")]
        assert samples and all(map(_SAMPLE_LINE.fullmatch, samples))
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


class TestLLMEngineSurfaces:
    """``/stats`` and ``/metrics`` describe any client through its own
    ``engine_name`` and ``describe()``."""

    def test_default_snapshot_keys(self, beer_dataset, service_config):
        service = ResolutionService.from_dataset(beer_dataset, service_config)
        snapshot = service.stats().llm_engine
        assert list(snapshot) == [
            "engine",
            "model",
            "supports_json_schema",
            "requests",
            "prompt_tokens",
            "completion_tokens",
        ]
        assert snapshot["engine"] == service.resolver.llm.engine_name == "simulated"

    def test_injected_client_describes_itself(self, beer_dataset, service_config, questions):
        from repro.llm.simulated import SimulatedLLM
        from repro.service.http import ServiceRouter

        class ProbeLLM(SimulatedLLM):
            engine_name = "probe"

        resolver = Resolver(
            config=service_config.batcher,
            demonstrations=list(beer_dataset.splits.train),
            attributes=beer_dataset.attributes,
            llm=ProbeLLM("gpt-3.5-03", seed=1),
        )
        service = ResolutionService(config=service_config, resolver=resolver).start()
        try:
            service.resolve_many(questions[:4])
        finally:
            service.stop()
        router = ServiceRouter(service)
        snapshot = json.loads(router.handle("GET", "/stats", {}).body)["llm_engine"]
        assert snapshot["engine"] == "probe"
        assert snapshot["model"] == "gpt-3.5-03"
        assert snapshot["requests"] == service.stats().llm_calls > 0
        exposition = router.handle("GET", "/metrics", {}).body.decode("utf-8")
        count = 'repro_llm_latency_seconds_count{engine="probe",model="gpt-3.5-03"}'
        assert _exposition_value(exposition, count) == snapshot["requests"]
