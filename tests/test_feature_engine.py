"""Tests for the columnar feature engine (FeatureStore + vectorized paths).

The engine's contract has two halves:

1. **Equivalence** — the vectorized ``extract_matrix`` paths (columnar
   similarity columns, batched sentence encoding, chunked store extraction)
   are bit-identical to the scalar ``extract`` oracle, so engine-served runs
   reproduce engine-free runs exactly, duplicate and renamed pairs included;
   and
2. **Sharing** — one store (and its planner) per session, statistics, and
   reuse through the similarity memo rather than a vector cache.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.schema import EntityPair, Record
from repro.features import FeatureStore, create_feature_extractor, create_feature_store
from repro.features.factory import EXTRACTOR_VARIANTS
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline
from repro.text.embeddings import HashingSentenceEncoder
from repro.text.similarity import similarity_memo_size


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


def renamed(pair, prefix):
    """``pair`` with the same record contents under new pair and record ids."""
    return EntityPair(
        pair_id=f"{prefix}{pair.pair_id}",
        left=Record(f"{prefix}{pair.left.record_id}", dict(pair.left.values)),
        right=Record(f"{prefix}{pair.right.record_id}", dict(pair.right.values)),
        label=pair.label,
    )


def beer_questions(dataset):
    return list(dataset.splits.test)[:40]


def with_duplicates(dataset):
    pairs = list(dataset.splits.test)[:20]
    return pairs + pairs[:10] + [pairs[3], pairs[3]]


def with_renamed_copies(dataset):
    pairs = list(dataset.splits.test)[:20]
    return pairs + [renamed(pair, "copy-") for pair in pairs[::2]]


class TestFeatureStore:
    @pytest.mark.parametrize("variant", ["lr", "semantic"])
    @pytest.mark.parametrize(
        "questions", [beer_questions, with_duplicates, with_renamed_copies]
    )
    def test_store_matrix_matches_scalar_oracle(self, beer_dataset, questions, variant):
        # Duplicates and same contents under other ids featurize to the
        # same rows as their originals: every row equals the scalar extract.
        pairs = questions(beer_dataset)
        store = create_feature_store(variant, beer_dataset.attributes)
        oracle = create_feature_extractor(variant, beer_dataset.attributes)
        cold = store.extract_matrix(pairs)
        warm = store.extract_matrix(pairs)
        expected = scalar_matrix(oracle, pairs)
        assert np.array_equal(cold, expected)
        assert np.array_equal(warm, expected)

    def test_concurrent_callers_get_oracle_rows(self, beer_dataset):
        # The sentence encoder's memo caches are unsynchronized; the store
        # serializes extraction, so interleaved callers still get exact rows.
        pairs = list(beer_dataset.splits.test)[:60]
        store = create_feature_store("semantic", beer_dataset.attributes)
        oracle = create_feature_extractor("semantic", beer_dataset.attributes)
        expected = scalar_matrix(oracle, pairs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(store.extract_matrix, pairs[index % 4::4])
                    for index in range(8)
                ]
                matrices = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for index, matrix in enumerate(matrices):
            assert np.array_equal(matrix, expected[index % 4::4])

    def test_empty_matrix(self):
        store = create_feature_store("lr", ("name",))
        assert store.extract_matrix([]).shape == (0, 1)


class TestChunkedExtraction:
    """Block-walked ``extract_matrix``: bounded working memory per call."""

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
        # A second call, served from the warm similarity memo, is walked the
        # same way.
        assert np.array_equal(
            chunked.extract_matrix(pairs), one_shot.extract_matrix(pairs)
        )
        assert chunked.stats().chunked_extracts == 2

    def test_stats_dict_carries_chunking_counters(self):
        store = create_feature_store("lr", ("name",))
        payload = store.stats().to_dict()
        assert {"chunked_extracts", "planning"} <= set(payload)
        assert "memmap_matrices" not in payload

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
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:8]
        resolver.resolve(questions)
        size = similarity_memo_size()
        assert size > 0
        # The same questions again: every value pair, in featurization and
        # in the simulated model alike, is read back from the memo.
        resolver.resolve(questions)
        assert similarity_memo_size() == size
        assert resolver.feature_store is store

    def test_service_stats_expose_feature_store(self, beer_dataset):
        from repro.resilience import BreakerConfig
        from repro.service import ResolutionService, ServiceConfig

        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=8,
            num_workers=1,
            breaker=BreakerConfig(),
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        questions = [pair.without_label() for pair in beer_dataset.splits.test][:8]
        with service:
            service.resolve_many(questions)
            stats = service.stats()
        assert stats.feature_store is not None
        assert stats.feature_store.planning["sparse_graphs"] >= 1
        payload = stats.to_dict()["feature_store"]
        assert set(payload) == {"chunked_extracts", "planning"}
        # On a healthy backend the breaker stays closed, and its families
        # render at zero so scrape schemas are stable before the first outage.
        assert stats.to_dict()["breaker"]["state"] == "closed"
        for family in (
            "repro_breaker_state",
            "repro_breaker_trips_total",
            "repro_breaker_fast_failures_total",
            "repro_service_degraded_total",
        ):
            assert [value for _, value in service.metrics.get(family).samples()] == [0]
