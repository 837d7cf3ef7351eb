"""Tests for the distance utilities, DBSCAN and K-Means."""

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
from repro.clustering.kmeans import KMeans


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

    @pytest.mark.parametrize("eps", [1.0, None])
    def test_labels_match_dense_matrix_oracle(self, eps):
        data = two_blobs(8)
        planned = DBSCAN(eps=eps, min_samples=3).fit(data)
        dense = DBSCAN(eps=eps, min_samples=3, planner=DensePlanner()).fit(data)
        assert np.array_equal(planned.labels, dense.labels)


class TestKMeans:
    def test_two_blobs_found(self):
        data = two_blobs()
        result = KMeans(num_clusters=2, seed=0).fit(data)
        assert len(set(result.labels[:20])) == 1
        assert len(set(result.labels[20:])) == 1
        assert result.labels[0] != result.labels[-1]

    def test_k_clamped_to_num_points(self):
        data = two_blobs(2)  # 4 points
        result = KMeans(num_clusters=10, seed=0).fit(data)
        assert result.centroids.shape[0] <= 4

    def test_clusters_partition_points(self):
        data = two_blobs(10)
        result = KMeans(num_clusters=3, seed=1).fit(data)
        flattened = sorted(index for cluster in result.clusters() for index in cluster)
        assert flattened == list(range(len(data)))

    def test_deterministic_given_seed(self):
        data = two_blobs(15)
        first = KMeans(num_clusters=4, seed=5).fit(data)
        second = KMeans(num_clusters=4, seed=5).fit(data)
        assert np.array_equal(first.labels, second.labels)

    def test_inertia_decreases_with_more_clusters(self):
        data = two_blobs(15)
        one = KMeans(num_clusters=1, seed=0).fit(data)
        four = KMeans(num_clusters=4, seed=0).fit(data)
        assert four.inertia <= one.inertia

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KMeans(num_clusters=0)
        with pytest.raises(ValueError):
            KMeans(max_iterations=0)

    def test_empty_input(self):
        result = KMeans(num_clusters=3).fit(np.zeros((0, 2)))
        assert result.labels.size == 0

    def test_far_from_origin_blobs(self):
        # The expanded-norm assignment centres the data first, so clusters
        # separated by ~1 unit are still resolved at a ~1e7 common offset
        # (|x|^2 + |c|^2 would otherwise swallow the cross term).
        data = two_blobs(15, separation=5.0) + 1e7
        result = KMeans(num_clusters=2, seed=0).fit(data)
        assert len(set(result.labels[:15])) == 1
        assert len(set(result.labels[15:])) == 1
        assert result.labels[0] != result.labels[-1]
