"""Tests for the distance utilities and DBSCAN."""

import numpy as np
import pytest
from dense_oracle import DensePlanner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering.dbscan import DBSCAN, NOISE_LABEL
from repro.clustering.distance import (
    cosine_distance,
    cross_distances,
    elementwise_distances,
    euclidean_distance,
    get_distance_function,
    pairwise_distances,
)


def two_blobs(num_per_blob=20, separation=5.0, seed=0):
    rng = np.random.default_rng(seed)
    blob_a = rng.normal(loc=0.0, scale=0.3, size=(num_per_blob, 2))
    blob_b = rng.normal(loc=separation, scale=0.3, size=(num_per_blob, 2))
    return np.vstack([blob_a, blob_b])


class TestDistances:
    def test_euclidean_known_value(self):
        assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_cosine_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_cosine_zero_vectors(self):
        assert cosine_distance(np.zeros(3), np.zeros(3)) == 0.0
        assert cosine_distance(np.zeros(3), np.ones(3)) == 1.0

    def test_pairwise_matrix_properties(self):
        data = two_blobs(10)
        matrix = pairwise_distances(data)
        assert matrix.shape == (20, 20)
        assert np.allclose(np.diag(matrix), 0.0)
        assert np.allclose(matrix, matrix.T)
        assert (matrix >= 0.0).all()

    def test_pairwise_matches_pointwise_euclidean(self):
        data = two_blobs(6)
        matrix = pairwise_distances(data)
        for i in range(len(data)):
            for j in range(len(data)):
                assert matrix[i, j] == pytest.approx(euclidean_distance(data[i], data[j]), abs=1e-8)

    def test_cross_distances_shape_and_values(self):
        left = two_blobs(4)
        right = two_blobs(3, seed=1)
        matrix = cross_distances(left, right)
        assert matrix.shape == (8, 6)
        assert matrix[0, 0] == pytest.approx(euclidean_distance(left[0], right[0]), abs=1e-8)

    def test_elementwise_matches_pairwise_conventions(self):
        # elementwise_distances(left, right)[i] must equal the corresponding
        # pairwise/cross entries, including the cosine zero-vector rules.
        rng = np.random.default_rng(4)
        left = rng.normal(size=(6, 3))
        right = rng.normal(size=(6, 3))
        left[0] = 0.0
        right[0] = 0.0  # zero-zero -> 0.0 under cosine
        left[1] = 0.0  # zero vs non-zero -> 1.0 under cosine
        for metric in ("euclidean", "cosine"):
            expected = pairwise_distances(np.vstack([left, right]), metric=metric)[
                np.arange(6), np.arange(6) + 6
            ]
            actual = elementwise_distances(left, right, metric=metric)
            assert np.allclose(actual, expected, atol=1e-12)
        assert elementwise_distances(left[:1], right[:1], metric="cosine")[0] == 0.0
        assert elementwise_distances(left[1:2], right[1:2], metric="cosine")[0] == 1.0
        with pytest.raises(KeyError):
            elementwise_distances(left, right, metric="manhattan")

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            pairwise_distances(two_blobs(3), metric="manhattan")
        with pytest.raises(KeyError):
            get_distance_function("manhattan")

    def test_pairwise_requires_2d(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.array([1.0, 2.0, 3.0]))

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 8), st.integers(1, 4)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_pairwise_symmetry_property(self, data):
        matrix = pairwise_distances(data)
        assert np.allclose(matrix, matrix.T, atol=1e-8)
        assert (matrix >= -1e-9).all()


class TestDBSCAN:
    def test_two_blobs_found(self):
        data = two_blobs()
        result = DBSCAN(eps=1.0, min_samples=3).fit(data)
        assert result.num_clusters == 2
        # Points in the same blob share a label.
        assert len(set(result.labels[:20])) == 1
        assert len(set(result.labels[20:])) == 1
        assert result.labels[0] != result.labels[20]

    def test_noise_points_marked(self):
        data = np.vstack([two_blobs(), [[100.0, 100.0]]])
        result = DBSCAN(eps=1.0, min_samples=3).fit(data)
        assert result.labels[-1] == NOISE_LABEL

    def test_noise_becomes_singleton_cluster(self):
        data = np.vstack([two_blobs(), [[100.0, 100.0]]])
        result = DBSCAN(eps=1.0, min_samples=3).fit(data)
        clusters = result.clusters(include_noise_as_singletons=True)
        assert sorted(index for cluster in clusters for index in cluster) == list(range(len(data)))
        assert [len(data) - 1] in clusters

    def test_automatic_eps(self):
        data = two_blobs()
        result = DBSCAN(min_samples=3).fit(data)
        assert result.num_clusters >= 1

    def test_empty_input(self):
        result = DBSCAN().fit(np.zeros((0, 3)))
        assert result.num_clusters == 0
        assert result.labels.size == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DBSCAN(eps=-1.0)
        with pytest.raises(ValueError):
            DBSCAN(min_samples=0)
        with pytest.raises(ValueError):
            DBSCAN(eps_percentile=0.0)

    def test_proper_clusters_leave_noise_out(self):
        data = np.vstack([two_blobs(), [[100.0, 100.0]]])
        result = DBSCAN(eps=1.0, min_samples=3).fit(data)
        clusters = result.clusters(include_noise_as_singletons=False)
        assert len(clusters) == result.num_clusters == 2
        assert sorted(index for cluster in clusters for index in cluster) == list(range(40))

    def test_deterministic_across_fits(self):
        data = two_blobs(15)
        first = DBSCAN(min_samples=3).fit(data)
        second = DBSCAN(min_samples=3).fit(data)
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.core_point_mask, second.core_point_mask)

    def test_min_samples_one_leaves_no_noise(self):
        data = np.vstack([two_blobs(5), [[100.0, 100.0]]])
        result = DBSCAN(eps=1.0, min_samples=1).fit(data)
        assert result.core_point_mask.all()
        assert NOISE_LABEL not in result.labels
        assert result.num_clusters == 3

    def test_radius_below_every_gap_makes_everything_noise(self):
        data = np.arange(12, dtype=float).reshape(6, 2)
        result = DBSCAN(eps=0.5, min_samples=2).fit(data)
        assert result.num_clusters == 0
        assert (result.labels == NOISE_LABEL).all()
        assert not result.core_point_mask.any()

    def test_cosine_metric_groups_by_direction(self):
        # Two rays at right angles; magnitudes differ along each ray, which
        # Euclidean distance would split but cosine distance ignores.
        scales = np.array([1.0, 10.0, 100.0, 1000.0])[:, None]
        data = np.vstack([scales * [1.0, 0.01], scales * [0.01, 1.0]])
        result = DBSCAN(eps=0.1, min_samples=2, metric="cosine").fit(data)
        assert result.num_clusters == 2
        assert len(set(result.labels[:4])) == 1
        assert len(set(result.labels[4:])) == 1

    def test_euclidean_labels_are_translation_invariant(self):
        # Euclidean DBSCAN sees only differences between points, so a common
        # offset (kept small enough for the |x|^2 + |y|^2 - 2x.y expansion to
        # stay exact at this scale) changes no label.
        data = two_blobs(15)
        near = DBSCAN(eps=1.0, min_samples=3).fit(data)
        far = DBSCAN(eps=1.0, min_samples=3).fit(data + 1e4)
        assert far.num_clusters == 2
        assert np.array_equal(far.labels, near.labels)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError, match="2-D"):
            DBSCAN().fit(np.arange(5, dtype=float))

    @pytest.mark.parametrize("eps", [1.0, None])
    def test_labels_match_dense_matrix_oracle(self, eps):
        data = two_blobs(8)
        planned = DBSCAN(eps=eps, min_samples=3).fit(data)
        dense = DBSCAN(eps=eps, min_samples=3, planner=DensePlanner()).fit(data)
        assert np.array_equal(planned.labels, dense.labels)

