"""Clustering substrate used by the question batching module.

The paper clusters questions with DBSCAN (Section III, footnote on clustering
choice), implemented here from scratch on top of numpy.
"""

from repro.clustering.distance import (
    elementwise_distances,
    euclidean_distance,
    pairwise_distances,
)
from repro.clustering.dbscan import DBSCAN, DBSCANResult
from repro.clustering.neighbors import (
    NeighborGraph,
    NeighborPlanner,
    build_cross_neighbor_graph,
    build_neighbor_graph,
    default_planner,
    dense_percentile_radius,
    sample_percentile_radius,
)

__all__ = [
    "DBSCAN",
    "DBSCANResult",
    "NeighborGraph",
    "NeighborPlanner",
    "build_cross_neighbor_graph",
    "build_neighbor_graph",
    "default_planner",
    "dense_percentile_radius",
    "elementwise_distances",
    "euclidean_distance",
    "pairwise_distances",
    "sample_percentile_radius",
]
