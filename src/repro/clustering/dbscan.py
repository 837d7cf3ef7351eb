"""DBSCAN density clustering (Ester et al., KDD 1996).

The paper clusters question feature vectors with DBSCAN before batching
(Section III).  This implementation runs its core mask and breadth-first
expansion over the index arrays of a CSR-style
:class:`~repro.clustering.neighbors.NeighborGraph`: frontiers are numpy
arrays, neighbour gathers are vectorized, and an enqueued mask guarantees
every point enters a frontier at most once.  The graph and the automatic
``eps`` come from a :class:`~repro.clustering.neighbors.NeighborPlanner`:
blocked radius joins (or, for very large inputs, the approximate LSH join)
and a percentile radius that is exact up to 2,048 points and sampled above,
so the ``(n, n)`` distance matrix is never materialised for the graph.

Labels ``0..k-1`` are assigned in seed order and noise points are marked
``-1``; downstream batching treats every noise point as its own singleton
cluster, because every question must end up in exactly one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.neighbors import NeighborGraph, NeighborPlanner, default_planner

#: Label assigned by DBSCAN to noise points.
NOISE_LABEL = -1


@dataclass(frozen=True)
class DBSCANResult:
    """Outcome of a DBSCAN run.

    Attributes:
        labels: per-point cluster labels (``-1`` = noise).
        num_clusters: number of proper (non-noise) clusters found.
        core_point_mask: boolean mask of core points.
    """

    labels: np.ndarray
    num_clusters: int
    core_point_mask: np.ndarray

    def clusters(self, include_noise_as_singletons: bool = True) -> list[list[int]]:
        """Group point indices by cluster.

        Args:
            include_noise_as_singletons: when True (the batching pipeline's
                behaviour), each noise point becomes its own singleton cluster
                appended after the proper clusters.
        """
        grouped: dict[int, list[int]] = {}
        for index, label in enumerate(self.labels):
            if label == NOISE_LABEL:
                continue
            grouped.setdefault(int(label), []).append(index)
        ordered = [grouped[label] for label in sorted(grouped)]
        if include_noise_as_singletons:
            ordered.extend(
                [index] for index, label in enumerate(self.labels) if label == NOISE_LABEL
            )
        return ordered


class DBSCAN:
    """Density-based clustering with an epsilon-neighbourhood and min-points rule.

    Args:
        eps: neighbourhood radius.  When ``None``, the radius is chosen
            automatically as a percentile of the non-zero pairwise distances,
            which makes the clusterer robust to the very different feature
            scales of the structure-aware (low-dimensional, [0,1] entries) and
            semantics-based (256-d unit vectors) extractors.
        min_samples: minimum neighbourhood size for a core point.
        eps_percentile: percentile used by the automatic radius rule.
        metric: distance metric (``"euclidean"`` or ``"cosine"``).
        planner: exact/LSH routing policy; defaults to the process-wide
            :func:`~repro.clustering.neighbors.default_planner`.
    """

    def __init__(
        self,
        eps: float | None = None,
        min_samples: int = 3,
        eps_percentile: float = 15.0,
        metric: str = "euclidean",
        planner: NeighborPlanner | None = None,
    ) -> None:
        if eps is not None and eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if not 0.0 < eps_percentile < 100.0:
            raise ValueError("eps_percentile must be in (0, 100)")
        self.eps = eps
        self.min_samples = min_samples
        self.eps_percentile = eps_percentile
        self.metric = metric
        self.planner = planner

    def fit(
        self, features: np.ndarray, planner: NeighborPlanner | None = None
    ) -> DBSCANResult:
        """Cluster the row vectors of ``features``.

        Args:
            features: ``(n, d)`` feature matrix.
            planner: per-call override of the routing policy.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
        n = features.shape[0]
        if n == 0:
            return DBSCANResult(
                labels=np.empty(0, dtype=int),
                num_clusters=0,
                core_point_mask=np.empty(0, dtype=bool),
            )
        active = planner or self.planner or default_planner()
        eps = (
            self.eps
            if self.eps is not None
            else active.resolve_radius(features, self.eps_percentile, self.metric)
        )
        graph = active.graph(features, eps, metric=self.metric, inclusive=True)
        return self._fit_graph(graph)

    def _fit_graph(self, graph: NeighborGraph) -> DBSCANResult:
        """Label the points of an inclusive epsilon self-join graph.

        The expansion works directly on the graph's CSR arrays: each BFS level
        gathers the neighbour ranges of the level's core points in one shot,
        and the ``enqueued`` mask keeps any point from entering a frontier
        twice (the pre-graph implementation could re-append the same neighbour
        many times in dense clusters).  Cluster seeds are visited in index
        order, so labels — including border points contested between clusters,
        which go to the earliest-seeded cluster — match the classic
        per-point-loop implementation exactly.
        """
        n = graph.num_rows
        indptr, indices = graph.indptr, graph.indices
        degrees = graph.degrees()
        # The graph excludes self-edges; the classic neighbourhood includes
        # the point itself, hence the +1.
        core_mask = (degrees + 1) >= self.min_samples
        labels = np.full(n, NOISE_LABEL, dtype=int)
        enqueued = np.zeros(n, dtype=bool)
        cluster_id = 0
        for point in range(n):
            if labels[point] != NOISE_LABEL or not core_mask[point]:
                continue
            labels[point] = cluster_id
            enqueued[point] = True
            frontier = indices[indptr[point] : indptr[point + 1]]
            frontier = frontier[~enqueued[frontier]]
            enqueued[frontier] = True
            while frontier.size:
                labels[frontier] = cluster_id
                # Only core members of the level expand the cluster.
                expanders = frontier[core_mask[frontier]]
                if expanders.size == 0:
                    break
                starts = indptr[expanders]
                counts = degrees[expanders]
                total = int(counts.sum())
                if total == 0:
                    break
                # Gather all expander neighbour ranges without a per-point loop.
                offsets = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                flat = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(offsets[:-1], counts)
                    + np.repeat(starts, counts)
                )
                candidates = indices[flat]
                candidates = candidates[~enqueued[candidates]]
                if candidates.size == 0:
                    break
                frontier = np.unique(candidates)
                enqueued[frontier] = True
            cluster_id += 1
        return DBSCANResult(labels=labels, num_clusters=cluster_id, core_point_mask=core_mask)
