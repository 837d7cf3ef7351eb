"""Test-only dense-matrix planning oracle.

The pre-sparse implementation of batch planning, kept as the reference the
planner is checked against: epsilon-graphs thresholded from the full pairwise
distance matrix, percentile radii over every off-diagonal entry, the
historical dense covering selection, and the eager (re-scan every round)
greedy set cover.  None of it bounds memory; it exists to be obviously right.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.distance import cross_distances, pairwise_distances
from repro.clustering.neighbors import (
    NeighborGraph,
    NeighborPlanner,
    dense_percentile_radius,
)
from repro.selection.covering import CoveringDiagnostics, CoveringSelector
from repro.selection.set_cover import SetCoverSolution, greedy_set_cover


def dense_graph(
    distances: np.ndarray,
    radius: float,
    metric: str = "euclidean",
    inclusive: bool = True,
) -> NeighborGraph:
    """Threshold a full distance matrix into a CSR graph (no self-edges)."""
    distances = np.asarray(distances)
    mask = distances <= radius if inclusive else distances < radius
    if mask.shape[0] == mask.shape[1]:
        np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=mask.shape[0]), out=indptr[1:])
    return NeighborGraph(
        indptr=indptr,
        indices=cols.astype(np.int64),
        num_cols=mask.shape[1],
        radius=float(radius),
        metric=metric,
        inclusive=inclusive,
    )


class DensePlanner(NeighborPlanner):
    """A planner answering every radius and self-join from the full matrix."""

    def resolve_radius(self, features, percentile, metric="euclidean"):
        features = np.asarray(features, dtype=float)
        if features.shape[0] < 2:
            return 1.0
        return dense_percentile_radius(
            pairwise_distances(features, metric=metric), percentile
        )

    def graph(self, features, radius, metric="euclidean", inclusive=True):
        distances = pairwise_distances(np.asarray(features, dtype=float), metric=metric)
        return dense_graph(distances, radius, metric=metric, inclusive=inclusive)


def dense_covering_select(
    selector: CoveringSelector,
    batches,
    question_features: np.ndarray,
    pool,
    pool_features: np.ndarray,
):
    """The historical dense covering selection, with ``selector``'s settings.

    Resolves ``t`` from the full question matrix, builds the full ``(n, m)``
    question-to-pool matrix, and runs both set-cover phases over it.  Sets
    ``selector.last_diagnostics`` like :meth:`CoveringSelector.select`.
    """
    if not pool:
        raise ValueError("the demonstration pool is empty")
    question_features = np.asarray(question_features, dtype=float)
    pool_features = np.asarray(pool_features, dtype=float)
    threshold = selector.threshold
    if threshold is None:
        threshold = DensePlanner().resolve_radius(
            question_features, selector.threshold_percentile, selector.metric
        )
    distances = cross_distances(question_features, pool_features, metric=selector.metric)
    num_questions, num_pool = distances.shape

    coverage = [
        frozenset(np.flatnonzero(distances[:, demo] < threshold).tolist())
        for demo in range(num_pool)
    ]
    generation = greedy_set_cover(num_questions, coverage, weights=None)
    demonstration_set = list(generation.selected)
    fallback_questions = sorted(generation.uncovered_items)
    for question_index in fallback_questions:
        nearest = int(np.argmin(distances[question_index]))
        if nearest not in demonstration_set:
            demonstration_set.append(nearest)

    token_weights = selector._token_weights(pool, demonstration_set)
    per_batch: list[list[int]] = []
    for batch in batches:
        batch_questions = list(batch.indices)
        local_coverage = [
            frozenset(
                position
                for position, question_index in enumerate(batch_questions)
                if distances[question_index, demo] < threshold
            )
            for demo in demonstration_set
        ]
        solution = greedy_set_cover(
            len(batch_questions),
            local_coverage,
            weights=[token_weights[demo] for demo in demonstration_set],
        )
        chosen = [demonstration_set[position] for position in solution.selected]
        for position in sorted(solution.uncovered_items):
            question_index = batch_questions[position]
            nearest_demo = min(
                demonstration_set, key=lambda demo: distances[question_index, demo]
            )
            if nearest_demo not in chosen:
                chosen.append(nearest_demo)
        per_batch.append(chosen)

    selector.last_diagnostics = CoveringDiagnostics(
        threshold=threshold,
        demonstration_set_size=len(demonstration_set),
        uncovered_questions=len(generation.uncovered_items),
        fallback_questions=len(fallback_questions),
    )
    return selector._build_result(batches, per_batch, pool)


def greedy_set_cover_eager(
    num_items: int,
    coverage: Sequence[frozenset[int] | set[int]],
    weights: Sequence[float] | None = None,
) -> SetCoverSolution:
    """Eager greedy weighted set cover: re-scan every candidate each round.

    Ties on ``(efficiency, gain)`` resolve to the lowest candidate index, the
    rule :func:`~repro.selection.set_cover.greedy_set_cover` must reproduce.
    """
    if weights is None:
        weights = [1.0] * len(coverage)
    if len(weights) != len(coverage):
        raise ValueError("coverage and weights differ in length")
    if any(weight <= 0.0 for weight in weights):
        raise ValueError("all candidate weights must be positive")
    universe = set(range(num_items))
    candidate_sets = [set(cover) & universe for cover in coverage]
    coverable = set().union(*candidate_sets)
    uncovered = set(coverable)
    remaining = list(range(len(candidate_sets)))
    selected: list[int] = []
    total_weight = 0.0
    while uncovered and remaining:
        best, best_efficiency, best_gain = -1, 0.0, 0
        for candidate in remaining:
            gain = len(candidate_sets[candidate] & uncovered)
            if gain == 0:
                continue
            efficiency = gain / weights[candidate]
            if efficiency > best_efficiency or (
                efficiency == best_efficiency and gain > best_gain
            ):
                best, best_efficiency, best_gain = candidate, efficiency, gain
        if best < 0:
            break
        selected.append(best)
        remaining.remove(best)
        uncovered -= candidate_sets[best]
        total_weight += float(weights[best])
    return SetCoverSolution(
        selected=tuple(selected),
        covered_items=frozenset(coverable - uncovered),
        uncovered_items=frozenset((universe - coverable) | uncovered),
        total_weight=total_weight,
    )
