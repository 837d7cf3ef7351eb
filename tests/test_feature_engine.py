"""Tests for the columnar feature engine (FeatureStore + vectorized paths).

The engine's contract has two halves:

1. **Equivalence** — the vectorized ``extract_matrix`` paths (columnar
   similarity columns, batched sentence encoding, store memoization) are
   bit-identical to the scalar ``extract`` oracle, so engine-served runs
   reproduce engine-free runs exactly; and
2. **Caching semantics** — content-addressed hits, LRU eviction, statistics
   and the per-run pairwise-distance matrix reuse.
"""

import json

import numpy as np
import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.fingerprint import pair_fingerprint
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.features import FeatureStore, create_feature_extractor, create_feature_store
from repro.features.factory import EXTRACTOR_VARIANTS
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline
from repro.text.embeddings import HashingSentenceEncoder


def scalar_matrix(extractor, pairs):
    """The scalar equivalence oracle: one ``extract`` call per pair."""
    if not pairs:
        return np.zeros((0, extractor.dimension), dtype=float)
    return np.vstack([extractor.extract(pair) for pair in pairs])


def make_pair(pair_id, left_values, right_values, label=None):
    return EntityPair(
        pair_id=pair_id,
        left=Record(f"{pair_id}-L", left_values),
        right=Record(f"{pair_id}-R", right_values),
        label=label,
    )


class TestVectorizedEncoder:
    def test_encode_batch_matches_encode_exactly(self):
        texts = [
            "here comes the fuzz",
            "Here Comes The Fuzz [Explicit]",
            "",
            "pale ale, sierra nevada",
            "here comes the fuzz",  # repeated text exercises the dedup path
            "ipa 7.2% abv",
        ]
        batch = HashingSentenceEncoder(dimension=128).encode_batch(texts)
        scalar = np.vstack(
            [HashingSentenceEncoder(dimension=128).encode(text) for text in texts]
        )
        assert np.array_equal(batch, scalar)

    def test_warm_memo_is_still_exact(self):
        encoder = HashingSentenceEncoder(dimension=64)
        texts = ["alpha beta", "gamma", "alpha beta"]
        cold = encoder.encode_batch(texts)
        warm = encoder.encode_batch(texts)
        assert np.array_equal(cold, warm)
        assert np.array_equal(encoder.encode("gamma"), cold[1])

    def test_memoized_vectors_are_isolated_copies(self):
        encoder = HashingSentenceEncoder(dimension=32)
        first = encoder.encode("mutate me")
        first[:] = 0.0
        assert np.linalg.norm(encoder.encode("mutate me")) > 0.0

    def test_text_cache_bound_is_enforced(self):
        encoder = HashingSentenceEncoder(dimension=16, text_cache_size=2)
        encoder.encode_batch(["a", "b", "c", "d"])
        assert len(encoder._text_cache) <= 2

    def test_empty_batch(self):
        assert HashingSentenceEncoder(dimension=16).encode_batch([]).shape == (0, 16)


class TestColumnarExtractorEquivalence:
    @pytest.mark.parametrize("variant", EXTRACTOR_VARIANTS)
    def test_extract_matrix_matches_scalar_extract(self, beer_dataset, variant):
        pairs = list(beer_dataset.splits.test)[:60] + list(beer_dataset.splits.train)[:60]
        extractor = create_feature_extractor(variant, beer_dataset.attributes)
        oracle = create_feature_extractor(variant, beer_dataset.attributes)
        assert np.array_equal(
            extractor.extract_matrix(pairs), scalar_matrix(oracle, pairs)
        )

    @pytest.mark.parametrize("variant", EXTRACTOR_VARIANTS)
    def test_missing_values_equivalent(self, variant):
        attributes = ("name", "brewery", "style")
        pairs = [
            make_pair("m0", {"name": "IPA"}, {"name": "IPA", "style": "ale"}),
            make_pair("m1", {"name": None, "brewery": ""}, {"brewery": None}),
            make_pair("m2", {"name": "IPA", "style": "ale"}, {"name": "IPA"}),
            make_pair("m2-dup", {"name": "IPA", "style": "ale"}, {"name": "IPA"}),
        ]
        extractor = create_feature_extractor(variant, attributes)
        oracle = create_feature_extractor(variant, attributes)
        assert np.array_equal(
            extractor.extract_matrix(pairs), scalar_matrix(oracle, pairs)
        )

    @pytest.mark.parametrize("variant", EXTRACTOR_VARIANTS)
    def test_repeated_calls_stay_equivalent(self, beer_dataset, variant):
        # The second call is served from the extractors' internal memo caches;
        # it must stay bit-identical to the first.
        pairs = list(beer_dataset.splits.test)[:30]
        extractor = create_feature_extractor(variant, beer_dataset.attributes)
        first = extractor.extract_matrix(pairs)
        second = extractor.extract_matrix(pairs)
        assert np.array_equal(first, second)


class TestFeatureStore:
    def test_store_matrix_matches_scalar_oracle(self, beer_dataset):
        pairs = list(beer_dataset.splits.test)[:40]
        store = create_feature_store("lr", beer_dataset.attributes)
        oracle = create_feature_extractor("lr", beer_dataset.attributes)
        cold = store.extract_matrix(pairs)
        warm = store.extract_matrix(pairs)
        expected = scalar_matrix(oracle, pairs)
        assert np.array_equal(cold, expected)
        assert np.array_equal(warm, expected)

    def test_hits_and_misses_are_counted(self, beer_dataset):
        pairs = list(beer_dataset.splits.test)[:10]
        store = create_feature_store("lr", beer_dataset.attributes)
        store.extract_matrix(pairs)
        stats = store.stats()
        assert stats.misses == 10 and stats.hits == 0 and stats.size == 10
        store.extract_matrix(pairs)
        stats = store.stats()
        assert stats.hits == 10 and stats.misses == 10
        assert stats.hit_rate == pytest.approx(0.5)

    def test_content_addressing_ignores_ids(self):
        attributes = ("name",)
        store = create_feature_store("lr", attributes)
        a = make_pair("a", {"name": "x"}, {"name": "y"})
        b = make_pair("totally-different-id", {"name": "x"}, {"name": "y"})
        store.extract_matrix([a])
        store.extract_matrix([b])
        assert store.stats().hits == 1
        assert len(store) == 1

    def test_duplicates_within_one_call_computed_once(self):
        attributes = ("name",)
        store = create_feature_store("lr", attributes)
        a = make_pair("a", {"name": "x"}, {"name": "y"})
        b = make_pair("b", {"name": "x"}, {"name": "y"})
        matrix = store.extract_matrix([a, b])
        assert np.array_equal(matrix[0], matrix[1])
        assert len(store) == 1

    def test_lru_eviction(self):
        attributes = ("name",)
        extractor = create_feature_extractor("lr", attributes)
        store = FeatureStore(extractor, capacity=2)
        pairs = [
            make_pair(f"p{i}", {"name": f"value {i}"}, {"name": f"other {i}"})
            for i in range(4)
        ]
        store.extract_matrix(pairs)
        stats = store.stats()
        assert stats.size == 2
        assert stats.evictions == 2

    def test_get_and_put_roundtrip(self):
        attributes = ("name", "style")
        store = create_feature_store("lr", attributes)
        pair = make_pair("p", {"name": "a"}, {"name": "b"})
        fingerprint = store.fingerprint(pair)
        assert fingerprint == pair_fingerprint(pair)
        assert store.get(fingerprint) is None
        store.put(fingerprint, [0.25, 0.5])
        vector = store.get(fingerprint)
        assert np.array_equal(vector, [0.25, 0.5])
        vector[:] = 0.0  # copies only: the store entry must not be mutable
        assert np.array_equal(store.get(fingerprint), [0.25, 0.5])

    def test_put_rejects_wrong_dimension(self):
        store = create_feature_store("lr", ("name",))
        with pytest.raises(ValueError, match="shape"):
            store.put("deadbeef", [0.1, 0.2])

    def test_invalid_capacity_rejected(self):
        extractor = create_feature_extractor("lr", ("name",))
        with pytest.raises(ValueError):
            FeatureStore(extractor, capacity=0)

    def test_empty_matrix(self):
        store = create_feature_store("lr", ("name",))
        assert store.extract_matrix([]).shape == (0, 1)


class TestChunkedExtraction:
    """Block-walked ``extract_matrix`` + memmap spill (million-record path)."""

    def make_pairs(self, count):
        return [
            make_pair(f"c{i}", {"name": f"item {i}"}, {"name": f"thing {i % 7}"})
            for i in range(count)
        ]

    def test_chunked_matrix_identical_to_one_shot(self):
        pairs = self.make_pairs(25)
        attributes = ("name",)
        chunked = FeatureStore(
            create_feature_extractor("lr", attributes), extract_block_size=4
        )
        one_shot = FeatureStore(
            create_feature_extractor("lr", attributes), extract_block_size=4096
        )
        assert np.array_equal(
            chunked.extract_matrix(pairs), one_shot.extract_matrix(pairs)
        )
        assert chunked.stats().chunked_extracts == 1
        assert one_shot.stats().chunked_extracts == 0
        # Hits on a warm store flow through the same chunked path.
        assert np.array_equal(
            chunked.extract_matrix(pairs), one_shot.extract_matrix(pairs)
        )
        assert chunked.stats().chunked_extracts == 2

    def test_memmap_spill_over_byte_budget(self):
        pairs = self.make_pairs(12)
        attributes = ("name",)
        store = FeatureStore(
            create_feature_extractor("lr", attributes),
            extract_block_size=5,
            matrix_byte_budget=8,  # any real matrix exceeds 8 bytes
        )
        in_ram = FeatureStore(create_feature_extractor("lr", attributes))
        spilled = store.extract_matrix(pairs)
        assert isinstance(spilled, np.memmap)
        assert np.array_equal(np.asarray(spilled), in_ram.extract_matrix(pairs))
        assert store.stats().memmap_matrices == 1
        # Small outputs stay in RAM even with a budget configured.
        assert not isinstance(store.extract_matrix([]), np.memmap)

    def test_stats_dict_carries_chunking_counters(self):
        store = create_feature_store("lr", ("name",))
        payload = store.stats().to_dict()
        assert {"chunked_extracts", "memmap_matrices", "planning"} <= set(payload)

    def test_create_feature_store_passthrough_reaches_planner(self):
        store = create_feature_store(
            "lr",
            ("name",),
            approx_planning_threshold=0,
            matrix_byte_budget=64,
        )
        assert store.planner.approx_threshold == 0
        assert store.matrix_byte_budget == 64

    def test_extract_block_size_validated(self):
        extractor = create_feature_extractor("lr", ("name",))
        with pytest.raises(ValueError, match="extract_block_size"):
            FeatureStore(extractor, extract_block_size=0)


class TestStorePlanner:
    """The store's planner resolves radii exactly on real question features."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_radius_matches_dense_rule(self, beer_question_features, metric):
        from repro.clustering.distance import pairwise_distances
        from repro.clustering.neighbors import dense_percentile_radius

        store = create_feature_store("lr", ("name",))
        expected = dense_percentile_radius(
            pairwise_distances(beer_question_features, metric=metric), 15.0
        )
        assert store.planner.resolve_radius(
            beer_question_features, 15.0, metric
        ) == expected
        assert store.stats().planning["sampled_radii"] == 0

    def test_stats_carry_no_distance_cache_or_dense_counters(self):
        payload = create_feature_store("lr", ("name",)).stats().to_dict()
        assert not {"distance_hits", "distance_misses"} & set(payload)
        assert not {"dense_graphs", "dense_radii"} & set(payload["planning"])


class TestGoldenRunEquivalence:
    """Fixed-seed runs through the engine reproduce the scalar path exactly."""

    @pytest.mark.parametrize("config", [
        BatcherConfig(seed=1, batching="diverse", selection="covering"),
        BatcherConfig(seed=1, batching="similar", selection="topk-batch"),
        BatcherConfig(seed=1, batching="random", selection="fixed",
                      feature_extractor="semantic"),
    ], ids=["diverse+covering", "similar+topk-batch", "random+fixed+semantic"])
    def test_run_result_byte_identical_to_scalar_path(self, beer_dataset, config):
        engine_result = BatchER(config).run(beer_dataset)

        # Scalar oracle run: pre-set the feature matrices with per-pair
        # extract() calls, so the pipeline never touches the columnar path.
        context = PipelineContext.from_dataset(beer_dataset, config)
        oracle = create_feature_extractor(config.feature_extractor, beer_dataset.attributes)
        context.question_features = scalar_matrix(oracle, context.questions)
        context.pool_features = scalar_matrix(oracle, context.pool)
        Pipeline.default().run(context)
        scalar_result = context.result

        assert engine_result == scalar_result
        assert engine_result.predictions == scalar_result.predictions
        assert json.dumps(engine_result.summary(), sort_keys=True) == json.dumps(
            scalar_result.summary(), sort_keys=True
        )

    def test_repeated_engine_runs_are_identical(self, beer_dataset):
        config = BatcherConfig(seed=3)
        assert BatchER(config).run(beer_dataset) == BatchER(config).run(beer_dataset)


class TestResolverAndServiceIntegration:
    def test_resolver_shares_one_store_across_calls(self, beer_dataset):
        from repro.pipeline import Resolver

        resolver = Resolver.from_dataset(beer_dataset, BatcherConfig(seed=1))
        resolver.warm()
        store = resolver.feature_store
        assert store is not None
        assert len(store) == resolver.pool_size
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:8]
        resolver.resolve(questions)
        first_stats = store.stats()
        # The same questions again: every vector is served from the store.
        resolver.resolve(questions)
        second_stats = store.stats()
        assert second_stats.hits >= first_stats.hits + len(questions)
        assert second_stats.misses == first_stats.misses

    def test_service_stats_expose_feature_store(self, beer_dataset):
        from repro.service import ResolutionService, ServiceConfig

        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), max_batch_size=8, num_workers=1
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:8]
        with service:
            service.resolve_many(questions)
            stats = service.stats()
        assert stats.feature_store is not None
        assert stats.feature_store.size >= len(questions)
        payload = stats.to_dict()["feature_store"]
        assert set(payload) >= {"size", "hit_rate", "evictions"}

    def test_spill_carries_vectors_and_warm_start_seeds_store(
        self, beer_dataset, tmp_path
    ):
        from repro.service import ResolutionService, ServiceConfig

        spill = tmp_path / "cache.jsonl"
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=8,
            num_workers=1,
            spill_path=str(spill),
        )
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:8]
        with ResolutionService.from_dataset(beer_dataset, config) as service:
            service.resolve_many(questions)
        entries = [json.loads(line) for line in spill.read_text().splitlines()]
        assert entries and all("vector" in entry for entry in entries)
        dimension = len(beer_dataset.attributes)
        assert all(len(entry["vector"]) == dimension for entry in entries)
        expected_tag = f"structure-lr/{tuple(beer_dataset.attributes)!r}"
        assert all(entry["extractor"] == expected_tag for entry in entries)

        # A fresh service warm-starts both caches from the spill file.
        restarted = ResolutionService.from_dataset(beer_dataset, config)
        restarted.start()
        try:
            store = restarted.resolver.feature_store
            for entry in entries:
                assert store.get(entry["fingerprint"]) is not None
            by_fingerprint = {
                entry["fingerprint"]: MatchLabel(entry["label"]) for entry in entries
            }
            resolutions = restarted.resolve_many(questions)
            assert restarted.stats().llm_calls == 0  # pure cache hits
            for question, resolution in zip(questions, resolutions):
                assert resolution.label == by_fingerprint[pair_fingerprint(question)]
        finally:
            restarted.stop(spill=False)

    def test_spilled_vectors_seed_late_known_schema(self, beer_dataset, tmp_path):
        """A service that learns its schema only after start() (demonstrations
        added later) must buffer spilled vectors and seed them once the
        feature store exists — not drop them."""
        from repro.service import ResolutionService, ServiceConfig

        spill = tmp_path / "cache.jsonl"
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:4]
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), num_workers=1, spill_path=str(spill)
        )
        with ResolutionService.from_dataset(beer_dataset, config) as service:
            service.resolve_many(questions)

        # Restart with *no* demonstrations and no attributes: the store
        # cannot exist at start(), so the spilled vectors are buffered.
        late = ResolutionService(config)
        late.start()
        try:
            assert late.resolver.feature_store is None
            late.resolver.add_demonstrations(list(beer_dataset.splits.train)[:40])
            late.resolve_many(questions[:2])  # first flush drains the buffer
            store = late.resolver.feature_store
            for question in questions:
                assert store.get(pair_fingerprint(question)) is not None
        finally:
            late.stop(spill=False)

    def test_warm_start_rejects_other_extractor_variant(self, beer_dataset, tmp_path):
        """Same dimension, different variant: the 'lr' and 'jaccard' extractors
        both produce len(attributes)-d vectors, so the provenance tag is what
        keeps a jaccard session from being poisoned with lr vectors."""
        from repro.service import ResolutionService, ServiceConfig

        spill = tmp_path / "cache.jsonl"
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:4]
        lr_config = ServiceConfig(
            batcher=BatcherConfig(seed=1, feature_extractor="lr"),
            num_workers=1,
            spill_path=str(spill),
        )
        with ResolutionService.from_dataset(beer_dataset, lr_config) as service:
            service.resolve_many(questions)

        jaccard_config = lr_config.with_overrides(
            batcher=BatcherConfig(seed=1, feature_extractor="jaccard")
        )
        restarted = ResolutionService.from_dataset(beer_dataset, jaccard_config)
        restarted.start()
        try:
            store = restarted.resolver.feature_store
            for question in questions:
                assert store.get(pair_fingerprint(question)) is None
            assert len(restarted.cache) > 0  # judgements still warm-start
        finally:
            restarted.stop(spill=False)

    def test_warm_start_skips_mismatched_vectors(self, beer_dataset, tmp_path):
        from repro.service import ResolutionService, ServiceConfig

        spill = tmp_path / "cache.jsonl"
        spill.write_text(
            json.dumps(
                {
                    "fingerprint": "00" * 16,
                    "label": 1,
                    "answered": True,
                    "vector": [0.1, 0.2],  # wrong dimensionality for the schema
                }
            )
            + "\n"
        )
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), num_workers=1, spill_path=str(spill)
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        service.start()
        try:
            assert service.resolver.feature_store.get("00" * 16) is None
            assert len(service.cache) == 1  # the judgement itself still loads
        finally:
            service.stop(spill=False)
