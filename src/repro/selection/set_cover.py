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

:func:`greedy_set_cover` is a **lazy-greedy (CELF-style)** implementation.
Gains are kept in a max-heap and only re-evaluated when a candidate reaches
the top with a stale value; because gains are non-increasing as the
uncovered set shrinks (submodularity), a fresh heap-top is provably the
global greedy choice — including its tie-break — so the selection sequence is
identical to an every-round re-scan while skipping the re-scan of candidates
whose gain cannot have changed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence


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
    num_items: int,
    coverage: Sequence[frozenset[int] | set[int]],
    weights: Sequence[float] | None = None,
) -> SetCoverSolution:
    """Lazy-greedy (CELF-style) weighted set cover.

    Args:
        num_items: number of items (questions) to cover; items are
            ``0 .. num_items - 1``.
        coverage: for every candidate (demonstration), the set of item indices
            it covers.
        weights: positive weight per candidate; defaults to unit weights.

    Returns:
        The greedy solution — selection-for-selection identical to the eager
        every-round re-scan, including the deterministic lowest-index
        tie-break.  Items that appear in no candidate's coverage
        are reported as ``uncovered_items`` rather than raising, because in
        the ER pipeline an uncoverable question simply falls back to
        nearest-neighbour demonstrations.

    Raises:
        ValueError: if weights are non-positive or the lengths disagree.
    """
    if weights is None:
        weights = [1.0] * len(coverage)
    if len(weights) != len(coverage):
        raise ValueError(
            f"coverage has {len(coverage)} candidates but weights has {len(weights)}"
        )
    if any(weight <= 0.0 for weight in weights):
        raise ValueError("all candidate weights must be positive")
    universe = set(range(num_items))
    candidate_sets = [set(cover) & universe for cover in coverage]
    coverable: set[int] = set().union(*candidate_sets)
    uncoverable = universe - coverable
    uncovered = set(coverable)
    selected: list[int] = []
    total_weight = 0.0

    # Max-heap of (-efficiency, -gain, index): popping yields the candidate
    # that is best under (efficiency desc, gain desc, index asc) — exactly
    # the eager scan's selection rule.  ``stamp[i]`` records how many
    # selections had been made when candidate i's gain was last computed; a
    # popped entry is trusted only if nothing was selected since.
    heap: list[tuple[float, int, int]] = []
    stamp = [0] * len(candidate_sets)
    for index, candidate in enumerate(candidate_sets):
        gain = len(candidate)
        if gain:
            heap.append((-gain / weights[index], -gain, index))
    heapq.heapify(heap)

    rounds = 0
    while uncovered and heap:
        _, _, index = heapq.heappop(heap)
        if stamp[index] == rounds:
            # Fresh value: stale entries are upper bounds (gains only shrink
            # as ``uncovered`` shrinks), so a fresh top beats everything
            # still in the heap — select it.
            selected.append(index)
            uncovered -= candidate_sets[index]
            total_weight += float(weights[index])
            rounds += 1
        else:
            gain = len(candidate_sets[index] & uncovered)
            stamp[index] = rounds
            if gain:
                heapq.heappush(heap, (-gain / weights[index], -gain, index))

    covered = coverable - uncovered
    return SetCoverSolution(
        selected=tuple(selected),
        covered_items=frozenset(covered),
        uncovered_items=frozenset(uncoverable | uncovered),
        total_weight=total_weight,
    )
