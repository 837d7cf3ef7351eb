"""Tests for the sparse neighbor-graph planning subsystem.

The contract under test is *equivalence*: for any input, planning over the
sparse blocked path must produce exactly the plans of the test-only
dense-matrix oracle (``dense_oracle``) — DBSCAN labels, covering
selections, set-cover solutions and end-to-end pipeline results alike.
"""

import subprocess
import sys

import numpy as np
import pytest
from dense_oracle import DensePlanner, dense_covering_select, dense_graph

from repro.batching.diversity_batching import DiversityQuestionBatcher
from repro.clustering.dbscan import DBSCAN
from repro.clustering.distance import cross_distances, pairwise_distances
from repro.clustering.neighbors import (
    EXACT_RADIUS_MAX_POINTS,
    NeighborPlanner,
    build_cross_neighbor_graph,
    build_neighbor_graph,
    default_planner,
    dense_percentile_radius,
    sample_percentile_radius,
)
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.selection.covering import CoveringSelector

SPARSE = dict(block_size=13)


def random_features(seed, n=None, d=None, degenerate=True):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 120))
    d = d if d is not None else int(rng.integers(1, 9))
    features = rng.normal(size=(n, d))
    if degenerate:
        if seed % 4 == 0:
            features[: n // 3] = features[0]  # duplicate rows
        if seed % 7 == 0:
            features[:] = 0.0  # all-zero vectors
        elif seed % 5 == 0:
            features[n // 2 :] = 0.0  # mixed zero rows
    return features


def blob_features(seed, n, d=6, blob_size=20):
    """Clustered (blobby) features: realistic geometry for the radius tests."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(max(1, n // blob_size), d))
    assignments = rng.integers(0, len(centers), size=n)
    return centers[assignments] + rng.normal(scale=0.25, size=(n, d))


def make_pair(index, label=MatchLabel.MATCH):
    values = {"name": f"item {index}", "price": str(index)}
    return EntityPair(
        pair_id=f"p{index}",
        left=Record(record_id=f"l{index}", values=values),
        right=Record(record_id=f"r{index}", values=values),
        label=label,
    )


class TestNeighborGraph:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_blocked_graph_matches_dense_adjacency(self, metric, inclusive):
        for seed in range(8):
            features = random_features(seed)
            distances = pairwise_distances(features, metric=metric)
            positive = distances[distances > 0]
            radius = float(np.median(positive)) if positive.size else 0.5
            graph = build_neighbor_graph(
                features, radius, metric=metric, inclusive=inclusive, block_size=7
            )
            dense = dense_graph(distances, radius, metric=metric, inclusive=inclusive)
            assert np.array_equal(graph.indptr, dense.indptr)
            assert np.array_equal(graph.indices, dense.indices)

    def test_neighbors_sorted_and_self_excluded(self):
        features = random_features(3)
        graph = build_neighbor_graph(features, 1.0, block_size=5)
        for row in range(graph.num_rows):
            neighbours = graph.neighbors(row)
            assert row not in neighbours
            assert np.array_equal(neighbours, np.sort(neighbours))

    def test_empty_and_single_point(self):
        empty = build_neighbor_graph(np.zeros((0, 3)), 1.0)
        assert empty.num_rows == 0 and empty.num_edges == 0
        single = build_neighbor_graph(np.zeros((1, 3)), 1.0)
        assert single.num_rows == 1 and single.num_edges == 0

    def test_transpose_roundtrip(self):
        features = random_features(9)
        graph = build_neighbor_graph(features, 1.5, block_size=11)
        transposed = graph.transpose()
        assert transposed.num_rows == graph.num_cols
        back = transposed.transpose()
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)

    def test_transpose_matches_dense_transpose(self):
        for seed in range(6):
            left = random_features(seed, n=37, d=4)
            right = random_features(seed + 50, n=23, d=4)
            distances = cross_distances(left, right)
            radius = float(np.median(distances))
            graph, _ = build_cross_neighbor_graph(left, right, radius, block_size=9)
            transposed = graph.transpose()
            rows, cols = np.nonzero((distances < radius).T)
            assert transposed.num_rows == 23 and transposed.num_cols == 37
            assert np.array_equal(transposed.indices, cols)
            assert np.array_equal(transposed.degrees(), np.bincount(rows, minlength=23))

    def test_gather_concatenates_rows_in_order(self):
        graph = build_neighbor_graph(random_features(9), 1.5, block_size=11)
        rows = np.array([5, 0, 5, graph.num_rows - 1], dtype=np.int64)
        expected = np.concatenate([graph.neighbors(row) for row in rows])
        assert np.array_equal(graph.gather(rows), expected)
        assert graph.gather(np.empty(0, dtype=np.int64)).size == 0

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_cross_graph_matches_dense_and_nearest(self, metric):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            left = random_features(seed, n=int(rng.integers(1, 60)))
            right = random_features(
                seed + 100, n=int(rng.integers(1, 40)), d=left.shape[1]
            )
            distances = cross_distances(left, right, metric=metric)
            radius = float(np.median(distances))
            graph, nearest = build_cross_neighbor_graph(
                left, right, radius, metric=metric, block_size=9, return_nearest=True
            )
            rows, cols = np.nonzero(distances < radius)
            assert np.array_equal(graph.indices, cols)
            assert np.array_equal(graph.degrees(), np.bincount(rows, minlength=len(left)))
            assert np.array_equal(nearest, np.argmin(distances, axis=1))

    def test_cross_graph_rejects_empty_right(self):
        with pytest.raises(ValueError):
            build_cross_neighbor_graph(np.zeros((2, 3)), np.zeros((0, 3)), 1.0)


class TestSamplePercentileRadius:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_exact_regime_matches_dense_percentile(self, metric):
        for seed in range(8):
            features = random_features(seed)
            n = features.shape[0]
            distances = pairwise_distances(features, metric=metric)
            off = distances[~np.eye(n, dtype=bool)]
            positive = off[off > 0.0]
            expected = (
                1.0 if positive.size == 0 else float(np.percentile(positive, 15.0))
            )
            assert sample_percentile_radius(features, 15.0, metric=metric) == expected

    def test_sampled_regime_deterministic_and_positive(self):
        features = np.random.default_rng(0).normal(size=(2100, 4))
        first = sample_percentile_radius(features, 10.0, sample_size=2000, seed=3)
        second = sample_percentile_radius(features, 10.0, sample_size=2000, seed=3)
        other_seed = sample_percentile_radius(features, 10.0, sample_size=2000, seed=4)
        assert first == second > 0.0
        assert other_seed > 0.0

    def test_degenerate_inputs(self):
        assert sample_percentile_radius(np.zeros((0, 3)), 15.0) == 1.0
        assert sample_percentile_radius(np.zeros((1, 3)), 15.0) == 1.0
        assert sample_percentile_radius(np.zeros((40, 3)), 15.0) == 1.0
        # identical points in the sampled regime: every distance is zero
        identical = np.ones((2100, 2))
        assert sample_percentile_radius(identical, 15.0, sample_size=100) == 1.0

    def test_validation(self):
        features = np.zeros((3, 2))
        with pytest.raises(ValueError):
            sample_percentile_radius(features, 0.0)
        with pytest.raises(ValueError):
            sample_percentile_radius(features, 15.0, sample_size=0)
        with pytest.raises(ValueError):
            sample_percentile_radius(np.zeros(3), 15.0)


class TestNeighborPlanner:
    def test_resolve_radius_matches_dense_rule(self):
        features = random_features(2)
        n = features.shape[0]
        distances = pairwise_distances(features)
        off = distances[~np.eye(n, dtype=bool)]
        expected = float(np.percentile(off[off > 0.0], 15.0))
        assert DensePlanner().resolve_radius(features, 15.0) == expected
        # the planner's exact regime reproduces the same value
        assert NeighborPlanner(**SPARSE).resolve_radius(features, 15.0) == expected

    def test_stats_counters(self):
        features = random_features(1, n=20)
        planner = NeighborPlanner(**SPARSE)
        planner.graph(features, 1.0)
        planner.resolve_radius(features, 15.0)
        planner.cross_graph(features, features, 1.0)
        stats = planner.stats().to_dict()
        assert stats["sparse_graphs"] == 1
        assert stats["sampled_radii"] == 0  # 20 points: the exact regime
        assert stats["cross_joins"] == 1
        assert stats["edges_built"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborPlanner(block_size=0)
        with pytest.raises(ValueError):
            NeighborPlanner(sample_size=0)

    def test_default_planner_is_shared(self):
        assert default_planner() is default_planner()

    def test_graph_spans_carry_points_and_edges(self):
        from repro.observability.tracing import Tracer

        tracer = Tracer()
        planner = NeighborPlanner(**SPARSE)
        planner.tracer = tracer
        features = blob_features(2, 40, d=2)
        graphs = [planner.graph(np.zeros((3, 2)), 1.0), planner.graph(features, 1.0)]
        spans = [
            span.attributes
            for span in tracer.finished_spans()
            if span.name == "planner:graph"
        ]
        assert [(span["points"], span["edges"]) for span in spans] == [
            (3, graphs[0].num_edges),
            (40, graphs[1].num_edges),
        ]
        assert graphs[0].num_edges == 6  # three coincident points
        assert all("regime" not in span for span in spans)


class TestExactRadiusBound:
    """Percentile radii are exact up to EXACT_RADIUS_MAX_POINTS points.

    Below the bound the full off-diagonal population can exceed the sample
    budget (600 * 599 > 262,144), so an exactness rule keyed on the budget
    alone would sample there and move the radius away from the dense rule.
    """

    @pytest.mark.parametrize("n", [600, EXACT_RADIUS_MAX_POINTS])
    def test_radius_bit_identical_to_dense_rule(self, n):
        features = blob_features(31, n)
        planner = NeighborPlanner()
        expected = dense_percentile_radius(pairwise_distances(features), 15.0)
        assert planner.resolve_radius(features, 15.0) == expected
        assert planner.stats().sampled_radii == 0

    def test_sampled_above_the_bound(self):
        features = blob_features(31, EXACT_RADIUS_MAX_POINTS + 1)
        planner = NeighborPlanner()
        planner.resolve_radius(features, 15.0)
        assert planner.stats().sampled_radii == 1

    def test_bound_holds_for_any_sample_size(self):
        features = blob_features(32, EXACT_RADIUS_MAX_POINTS)
        planner = NeighborPlanner(sample_size=16)
        expected = dense_percentile_radius(pairwise_distances(features), 15.0)
        assert planner.resolve_radius(features, 15.0) == expected
        assert planner.stats().sampled_radii == 0
        # one point past the bound, the tiny budget is sampled
        planner.resolve_radius(blob_features(32, EXACT_RADIUS_MAX_POINTS + 1), 15.0)
        assert planner.stats().sampled_radii == 1

    def test_full_population_budget_stays_exact_above_the_bound(self):
        n = EXACT_RADIUS_MAX_POINTS + 1
        features = blob_features(33, n)
        planner = NeighborPlanner(sample_size=n * (n - 1))
        expected = dense_percentile_radius(pairwise_distances(features), 15.0)
        assert planner.resolve_radius(features, 15.0) == expected
        assert planner.stats().sampled_radii == 0

    def test_covering_threshold_exact_past_the_sample_budget(self):
        features = blob_features(34, 600)
        dense = CoveringSelector(planner=DensePlanner()).resolve_threshold(features)
        planned = CoveringSelector(planner=NeighborPlanner()).resolve_threshold(
            features
        )
        assert planned == dense

    def test_dbscan_labels_exact_past_the_sample_budget(self):
        features = blob_features(35, 600)
        # min_samples near the typical degree makes the core mask eps-sensitive
        dense = DBSCAN(min_samples=60, planner=DensePlanner()).fit(features)
        planned = DBSCAN(min_samples=60, planner=NeighborPlanner()).fit(features)
        assert np.array_equal(dense.labels, planned.labels)
        assert np.array_equal(dense.core_point_mask, planned.core_point_mask)

    def test_radius_span_in_both_regimes(self):
        from repro.observability.tracing import Tracer

        tracer = Tracer()
        planner = NeighborPlanner()
        planner.tracer = tracer
        planner.resolve_radius(blob_features(36, 20), 15.0)
        planner.resolve_radius(blob_features(36, EXACT_RADIUS_MAX_POINTS + 1), 15.0)
        points = [
            span.attributes["points"]
            for span in tracer.finished_spans()
            if span.name == "planner:radius"
        ]
        assert points == [20, EXACT_RADIUS_MAX_POINTS + 1]


class TestExactJoinOnBlobbyWorkloads:
    """The blocked self-join is exact on clustered geometry at any size.

    Blobby inputs put many points inside each radius, which is where a
    candidate-pruning join would lose edges; the blocked join must not.
    """

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_graph_matches_dense_adjacency(self, n, metric):
        features = blob_features(17, n)
        radius = sample_percentile_radius(features, 0.5, metric=metric)
        graph = NeighborPlanner().graph(features, radius, metric=metric)
        dense = dense_graph(
            pairwise_distances(features, metric=metric), radius, metric=metric
        )
        assert graph.num_edges > 0
        assert np.array_equal(graph.indptr, dense.indptr)
        assert np.array_equal(graph.indices, dense.indices)

    def test_graph_independent_of_block_size_and_call(self):
        features = blob_features(3, 700)
        radius = sample_percentile_radius(features, 1.0)
        reference = NeighborPlanner().graph(features, radius)
        for block_size in (1, 13, 700, 4096):
            planner = NeighborPlanner(block_size=block_size)
            for _ in range(2):
                graph = planner.graph(features, radius)
                assert np.array_equal(graph.indptr, reference.indptr)
                assert np.array_equal(graph.indices, reference.indices)

    def test_zero_radius_links_exactly_the_duplicates(self):
        features = blob_features(4, 60)
        features[10:20] = features[10]
        inclusive = NeighborPlanner(**SPARSE).graph(features, 0.0, inclusive=True)
        expected = np.zeros(60, dtype=np.int64)
        expected[10:20] = 9
        assert np.array_equal(inclusive.degrees(), expected)
        assert np.array_equal(inclusive.neighbors(10), np.arange(11, 20))
        exclusive = NeighborPlanner(**SPARSE).graph(features, 0.0, inclusive=False)
        assert exclusive.num_edges == 0

    def test_dbscan_labels_match_dense(self):
        features = blob_features(13, 900)
        dense = DBSCAN(
            min_samples=2, eps_percentile=2.0, planner=DensePlanner()
        ).fit(features)
        planned = DBSCAN(
            min_samples=2, eps_percentile=2.0, planner=NeighborPlanner()
        ).fit(features)
        assert dense.num_clusters > 1
        assert np.array_equal(dense.labels, planned.labels)
        assert np.array_equal(dense.core_point_mask, planned.core_point_mask)

    def test_cross_join_matches_dense_and_nearest(self):
        features = blob_features(7, 300)
        rng = np.random.default_rng(8)
        # demonstrations drawn from the same blobs as the questions
        pool = features[::6] + rng.normal(scale=0.25, size=(50, features.shape[1]))
        planner = NeighborPlanner(**SPARSE)
        graph, nearest = planner.cross_graph(features, pool, 1.0, return_nearest=True)
        distances = cross_distances(features, pool)
        rows, cols = np.nonzero(distances < 1.0)
        assert graph.num_edges > 0
        assert np.array_equal(graph.indices, cols)
        assert np.array_equal(
            graph.degrees(), np.bincount(rows, minlength=len(features))
        )
        assert np.array_equal(nearest, np.argmin(distances, axis=1))
        assert planner.stats().cross_joins == 1


class TestSparseDBSCANEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("min_samples", [1, 2, 3])
    def test_labels_match_dense_across_seeds(self, metric, min_samples):
        for seed in range(12):
            features = random_features(seed)
            dense = DBSCAN(
                min_samples=min_samples, metric=metric, planner=DensePlanner()
            ).fit(features)
            sparse = DBSCAN(
                min_samples=min_samples,
                metric=metric,
                planner=NeighborPlanner(**SPARSE),
            ).fit(features)
            assert np.array_equal(dense.labels, sparse.labels)
            assert dense.num_clusters == sparse.num_clusters
            assert np.array_equal(dense.core_point_mask, sparse.core_point_mask)

    def test_explicit_eps_and_degenerate_inputs(self):
        planner = NeighborPlanner(**SPARSE)
        empty = DBSCAN(planner=planner).fit(np.zeros((0, 2)))
        assert empty.num_clusters == 0
        single = DBSCAN(planner=planner).fit(np.zeros((1, 2)))
        assert single.labels.size == 1
        blob = np.zeros((10, 2))
        dense = DBSCAN(eps=0.5, min_samples=2, planner=DensePlanner()).fit(blob)
        sparse = DBSCAN(eps=0.5, min_samples=2, planner=planner).fit(blob)
        assert np.array_equal(dense.labels, sparse.labels)


class TestSparseCoveringEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_selections_match_dense_across_seeds(self, metric):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 80))
            m = int(rng.integers(1, 50))
            d = int(rng.integers(1, 7))
            question_features = random_features(seed, n=n, d=d)
            pool_features = random_features(seed + 500, n=m, d=d)
            questions = [make_pair(i) for i in range(n)]
            pool = [
                make_pair(1000 + i, MatchLabel(int(rng.integers(0, 2))))
                for i in range(m)
            ]
            batches = DiversityQuestionBatcher(batch_size=5, seed=seed).create_batches(
                questions, question_features
            )
            dense_selector = CoveringSelector(metric=metric)
            sparse_selector = CoveringSelector(
                metric=metric, planner=NeighborPlanner(**SPARSE)
            )
            dense = dense_covering_select(
                dense_selector, batches, question_features, pool, pool_features
            )
            sparse = sparse_selector.select(
                batches, question_features, pool, pool_features
            )
            assert dense.labeled_pool_indices == sparse.labeled_pool_indices
            for dense_batch, sparse_batch in zip(dense.per_batch, sparse.per_batch):
                assert dense_batch.pool_indices == sparse_batch.pool_indices
            assert dense_selector.last_diagnostics == sparse_selector.last_diagnostics

    def test_single_question_and_pool(self):
        questions = [make_pair(0)]
        pool = [make_pair(1, MatchLabel.NON_MATCH)]
        features = np.zeros((1, 3))
        batches = DiversityQuestionBatcher(batch_size=4).create_batches(
            questions, features
        )
        selector = CoveringSelector(planner=NeighborPlanner(**SPARSE))
        result = selector.select(batches, features, pool, np.zeros((1, 3)))
        assert result.per_batch[0].pool_indices == (0,)

    def test_empty_pool_raises(self):
        selector = CoveringSelector(planner=NeighborPlanner(**SPARSE))
        with pytest.raises(ValueError):
            selector.select([], np.zeros((2, 2)), [], np.zeros((0, 2)))

    def test_resolve_threshold_sparse_matches_dense(self):
        features = random_features(11)
        dense = CoveringSelector(planner=DensePlanner()).resolve_threshold(features)
        sparse = CoveringSelector(
            planner=NeighborPlanner(**SPARSE)
        ).resolve_threshold(features)
        assert dense == sparse


class TestEndToEndGoldenEquivalence:
    """Fixed-seed BatchER runs are byte-identical to the dense-matrix oracle."""

    @pytest.mark.parametrize("extractor", ["lr", "semantic"])
    def test_batcher_run_identical_with_sparse_planning(
        self, beer_dataset, extractor, monkeypatch
    ):
        from repro.core.batcher import BatchER
        from repro.core.config import BatcherConfig
        from repro.features.engine import FeatureStore
        from repro.features.factory import create_feature_extractor
        from repro.pipeline.context import PipelineContext
        from repro.pipeline.pipeline import Pipeline

        config = BatcherConfig(feature_extractor=extractor, seed=0, max_questions=60)
        reference = BatchER(config).run(beer_dataset)

        # The oracle run: clustering and covering over full distance matrices.
        def select_dense(
            self, batches, question_features, pool, pool_features, planner=None
        ):
            return dense_covering_select(
                self, batches, question_features, pool, pool_features
            )

        monkeypatch.setattr(CoveringSelector, "select", select_dense)
        context = PipelineContext.from_dataset(beer_dataset, config)
        context.feature_store = FeatureStore(
            create_feature_extractor(extractor, beer_dataset.attributes),
            planner=DensePlanner(),
        )
        Pipeline.default().run(context)
        dense = context.result

        assert dense is not None
        assert reference.predictions == dense.predictions
        assert reference.metrics == dense.metrics
        assert reference.cost == dense.cost
        assert reference.num_batches == dense.num_batches
        assert reference.num_unanswered == dense.num_unanswered
        assert reference.summary() == dense.summary()

    def test_resolver_uses_store_planner(self, beer_dataset):
        from repro.core.config import BatcherConfig
        from repro.pipeline.resolver import Resolver

        resolver = Resolver.from_dataset(
            beer_dataset, config=BatcherConfig(max_questions=None)
        )
        assert resolver.planner is not None
        resolver.resolve(list(beer_dataset.splits.test)[:10])
        stats = resolver.feature_store.stats()
        assert "planning" in stats.to_dict()
        # Small chunks plan over exact sparse graphs with exact radii.
        assert stats.planning["sparse_graphs"] >= 1
        assert stats.planning["sampled_radii"] == 0


class TestRadiusSeedStability:
    """Sampled radii are a pure function of (features, percentile, metric, seed).

    The inputs sit just above EXACT_RADIUS_MAX_POINTS so the planner samples.
    """

    def test_call_order_independent(self):
        features_a = np.random.default_rng(0).normal(size=(2100, 4))
        features_b = np.random.default_rng(1).normal(size=(2080, 4))
        planner_one = NeighborPlanner(sample_size=2000)
        planner_two = NeighborPlanner(sample_size=2000)
        first = planner_one.resolve_radius(features_a, 10.0)
        # A different call history must not perturb later resolutions.
        planner_two.resolve_radius(features_b, 10.0)
        planner_two.resolve_radius(features_a, 35.0)
        assert planner_two.resolve_radius(features_a, 10.0) == first

    def test_content_and_seed_sensitivity(self):
        features = np.random.default_rng(2).normal(size=(2100, 4))
        base = NeighborPlanner(sample_size=2000)
        reseeded = NeighborPlanner(sample_size=2000, seed=99)
        assert base.resolve_radius(features, 10.0) == NeighborPlanner(
            sample_size=2000
        ).resolve_radius(features, 10.0)
        # A different planner seed draws a different sample (with overwhelming
        # probability on continuous data).
        assert reseeded.resolve_radius(features, 10.0) != base.resolve_radius(
            features, 10.0
        )

    def test_byte_stable_across_processes(self):
        # The sample seed is derived from the feature bytes via blake2b, not
        # from Python's per-process salted hash() — so a fresh interpreter
        # resolves the identical radius.
        script = (
            "import numpy as np\n"
            "from repro.clustering.neighbors import NeighborPlanner\n"
            "features = np.random.default_rng(7).normal(size=(2100, 4))\n"
            "planner = NeighborPlanner(sample_size=2000)\n"
            "print(repr(planner.resolve_radius(features, 10.0)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        features = np.random.default_rng(7).normal(size=(2100, 4))
        planner = NeighborPlanner(sample_size=2000)
        assert completed.stdout.strip() == repr(planner.resolve_radius(features, 10.0))
