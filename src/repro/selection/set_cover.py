"""Greedy (weighted) set cover — Algorithm 1 of the paper.

Both covering sub-problems are instances of weighted set cover:

* **Demonstration Set Generation** — items are all questions, candidate sets
  are pool demonstrations (each covering the questions within distance ``t``),
  weights are all 1; minimise the number of labeled demonstrations.
* **Batch Covering** — items are the questions of one batch, candidates are the
  demonstrations of the generated set, weights are token counts; minimise the
  prompt token cost.

The greedy rule picks, at each step, the candidate maximising
``(newly covered items) / weight``, which yields the classic ``H_k``
approximation guarantee cited by the paper.  Ties on ``(efficiency, gain)``
resolve deterministically to the lowest candidate index.

:func:`greedy_set_cover` reads the coverage relation as a CSR
:class:`~repro.clustering.neighbors.NeighborGraph` (candidate rows, item
columns) and keeps every candidate's gain — its number of still-uncovered
items — in one integer vector.  A pick is an ``argmax`` of ``gain / weight``
over that vector; the items it newly covers are walked
back through the item→candidate graph, and one ``bincount`` of the
candidates covering them lowers every affected gain at once.  Each item is
uncovered once, so the updates touch each graph edge once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clustering.neighbors import NeighborGraph


@dataclass(frozen=True)
class SetCoverSolution:
    """Outcome of a greedy set cover run.

    Attributes:
        selected: indices of the chosen candidate sets, in selection order.
        covered_items: items covered by the selection.
        uncovered_items: items that no candidate could cover at all.
        total_weight: sum of weights of the selected candidates.
    """

    selected: tuple[int, ...]
    covered_items: frozenset[int]
    uncovered_items: frozenset[int]
    total_weight: float


def coverage_value(selected_coverage: Sequence[frozenset[int] | set[int]]) -> int:
    """Value function ``f_Q(Ds)`` of Algorithm 1: number of covered questions."""
    covered: set[int] = set()
    for cover in selected_coverage:
        covered |= set(cover)
    return len(covered)


def greedy_set_cover(
    coverage: NeighborGraph,
    covered_by: NeighborGraph,
    weights: Sequence[float] | np.ndarray | None = None,
) -> SetCoverSolution:
    """Greedy weighted set cover over a CSR coverage graph.

    Args:
        coverage: row ``c`` lists the items candidate ``c`` covers; items
            are ``0 .. coverage.num_cols - 1``.
        covered_by: the transpose of ``coverage`` (item → candidates).
        weights: positive, finite weight per candidate; defaults to unit
            weights.

    Returns:
        The greedy solution: each pick maximises ``gain / weight``, then
        gain, then takes the lowest candidate index.  Items that appear in no
        candidate's coverage are reported as ``uncovered_items`` rather than
        raising, because in the ER pipeline an uncoverable question simply
        falls back to nearest-neighbour demonstrations.

    Raises:
        ValueError: if a weight is non-positive or non-finite, or the
            lengths disagree.
    """
    num_candidates = coverage.num_rows
    weight_array = np.ones(num_candidates) if weights is None else np.asarray(weights, dtype=float)
    if weight_array.shape != (num_candidates,):
        raise ValueError(
            f"coverage has {num_candidates} candidates but weights has {weight_array.size}"
        )
    if not np.all(np.isfinite(weight_array) & (weight_array > 0.0)):
        raise ValueError("all candidate weights must be positive and finite")

    gain = coverage.degrees().astype(np.int64)
    covered = np.zeros(coverage.num_cols, dtype=bool)
    selected: list[int] = []
    total_weight = 0.0
    while num_candidates:
        efficiency = gain / weight_array
        ties = np.flatnonzero(efficiency == efficiency.max())
        # argmax returns the first maximum: the lowest index on a gain tie.
        best = int(ties[np.argmax(gain[ties])])
        if gain[best] == 0:
            break
        items = coverage.neighbors(best)
        newly = items[~covered[items]]
        covered[newly] = True
        gain -= np.bincount(covered_by.gather(newly), minlength=num_candidates)
        selected.append(best)
        total_weight += float(weight_array[best])

    return SetCoverSolution(
        selected=tuple(selected),
        covered_items=frozenset(np.flatnonzero(covered).tolist()),
        uncovered_items=frozenset(np.flatnonzero(~covered).tolist()),
        total_weight=total_weight,
    )

