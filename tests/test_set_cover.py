"""Tests for the greedy (weighted) set cover of Algorithm 1."""

import math

import numpy as np
import pytest
from dense_oracle import greedy_set_cover_eager
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.clustering.neighbors import NeighborGraph
from repro.selection.set_cover import coverage_value, greedy_set_cover


def cover_graph(num_items, coverage):
    """The CSR coverage graph of ``coverage`` (one item set per candidate).

    Items outside ``0 .. num_items - 1`` are dropped.
    """
    rows = [sorted(item for item in set(cover) if 0 <= item < num_items) for cover in coverage]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([item for row in rows for item in row], dtype=np.int64)
    return NeighborGraph(
        indptr=indptr, indices=indices, num_cols=num_items,
        radius=0.0, metric="euclidean", inclusive=False,
    )


def solve(num_items, coverage, weights=None):
    """:func:`greedy_set_cover` on set-based input."""
    graph = cover_graph(num_items, coverage)
    return greedy_set_cover(graph, graph.transpose(), weights)


class TestCoverageValue:
    def test_counts_distinct_items(self):
        assert coverage_value([{0, 1}, {1, 2}]) == 3
        assert coverage_value([]) == 0


class TestGreedySetCover:
    def test_simple_cover(self):
        coverage = [{0, 1}, {1, 2}, {3}]
        solution = solve(4, coverage)
        covered = set()
        for index in solution.selected:
            covered |= set(coverage[index])
        assert covered == {0, 1, 2, 3}
        assert not solution.uncovered_items

    def test_greedy_prefers_large_sets(self):
        coverage = [{0}, {1}, {2}, {0, 1, 2}]
        solution = solve(3, coverage)
        assert solution.selected == (3,)

    def test_weighted_cover_prefers_cheap_sets(self):
        # Candidate 0 covers everything but is very expensive; candidates 1-2
        # cover everything together at a lower combined efficiency per weight.
        coverage = [{0, 1, 2, 3}, {0, 1}, {2, 3}]
        weights = [100.0, 1.0, 1.0]
        solution = solve(4, coverage, weights)
        assert set(solution.selected) == {1, 2}
        assert solution.total_weight == pytest.approx(2.0)

    def test_uncoverable_items_reported(self):
        coverage = [{0}, {1}]
        solution = solve(3, coverage)
        assert 2 in solution.uncovered_items
        assert solution.covered_items == {0, 1}

    def test_zero_items(self):
        solution = solve(0, [{0, 1}])
        assert solution.selected == ()
        assert not solution.uncovered_items

    def test_no_candidates(self):
        solution = solve(3, [])
        assert solution.selected == ()
        assert solution.uncovered_items == {0, 1, 2}

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve(2, [{0}], weights=[1.0, 2.0])

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ValueError):
            solve(2, [{0}, {1}], weights=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            solve(2, [{0}, {1}], weights=[bad, 1.0])

    def test_coverage_outside_universe_ignored(self):
        solution = solve(2, [{0, 5, 9}, {1}])
        assert solution.covered_items == {0, 1}

    def test_greedy_matches_optimum_on_classic_instance(self):
        # Classic set cover instance where greedy happens to be optimal.
        coverage = [{0, 1, 2}, {2, 3}, {4, 5}, {0, 3, 4, 5}]
        solution = solve(6, coverage)
        assert len(solution.selected) == 2

    @given(
        num_items=st.integers(1, 25),
        candidates=st.lists(
            st.frozensets(st.integers(0, 24), max_size=6), min_size=1, max_size=30
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_all_coverable_items_covered(self, num_items, candidates):
        solution = solve(num_items, candidates)
        universe = set(range(num_items))
        coverable = set().union(*[set(c) & universe for c in candidates]) if candidates else set()
        covered = set()
        for index in solution.selected:
            covered |= set(candidates[index]) & universe
        assert covered == coverable
        assert solution.uncovered_items == universe - coverable
        # Selected candidates are distinct.
        assert len(solution.selected) == len(set(solution.selected))

    @given(
        candidates=st.lists(
            st.frozensets(st.integers(0, 14), min_size=1, max_size=5), min_size=1, max_size=15
        ),
        weights=st.lists(st.floats(0.1, 10.0), min_size=15, max_size=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_total_weight_is_sum_of_selected(self, candidates, weights):
        weights = weights[: len(candidates)]
        solution = solve(15, candidates, weights)
        expected = sum(weights[index] for index in solution.selected)
        assert solution.total_weight == pytest.approx(expected)


class TestDeterministicTieBreaking:
    def test_ties_resolve_to_lowest_candidate_index(self):
        # Candidates 1 and 3 tie exactly on (efficiency, gain); the lowest
        # index must win, deterministically.
        coverage = [{0}, {0, 1}, {2}, {0, 1}]
        solution = solve(3, coverage)
        assert solution.selected[0] == 1
        eager = greedy_set_cover_eager(3, coverage)
        assert eager.selected[0] == 1

    def test_weighted_efficiency_tie_prefers_higher_gain(self):
        # Equal efficiency (2/2 == 1/1) but different gain: the higher gain
        # wins; on a full tie the lower index wins.
        coverage = [{0}, {0, 1}, {0, 1}]
        weights = [1.0, 2.0, 2.0]
        for implementation in (solve, greedy_set_cover_eager):
            solution = implementation(2, coverage, weights)
            assert solution.selected[0] == 1

    def test_efficiency_tie_after_gains_drop(self):
        # Candidate 0 is picked first; it leaves candidate 1 with gain 1 at
        # weight 1 and candidate 2 with gain 2 at weight 2: equal efficiency,
        # so the higher gain (candidate 2) wins the second pick.
        coverage = [{0, 1, 2, 3}, {3, 4}, {0, 5, 6}]
        weights = [1.0, 1.0, 2.0]
        for implementation in (solve, greedy_set_cover_eager):
            assert implementation(7, coverage, weights).selected[:2] == (0, 2)


def assert_same_solution(num_items, coverage, weights):
    fast = solve(num_items, coverage, weights)
    eager = greedy_set_cover_eager(num_items, coverage, weights)
    assert fast == eager


class TestMatchesEager:
    def test_known_instances(self):
        instances = [
            (4, [{0, 1}, {1, 2}, {3}], None),
            (4, [{0, 1, 2, 3}, {0, 1}, {2, 3}], [100.0, 1.0, 1.0]),
            (3, [{0}, {1}], None),
            (0, [{0, 1}], None),
            (5, [], None),
            (4, [set(), {0, 1}, set(), {1, 2}], [1.0, 2.0, 1.0, 2.0]),
        ]
        for num_items, coverage, weights in instances:
            assert_same_solution(num_items, coverage, weights)

    @seed(20240917)
    @given(
        num_items=st.integers(0, 25),
        candidates=st.lists(
            st.frozensets(st.integers(0, 24), max_size=8), max_size=25
        ),
        weight_choices=st.lists(
            st.sampled_from([1.0, 1.0, 2.0, 3.5, 0.25]), min_size=25, max_size=25
        ),
        use_weights=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_identical_solutions(
        self, num_items, candidates, weight_choices, use_weights
    ):
        weights = weight_choices[: len(candidates)] if use_weights else None
        assert_same_solution(num_items, candidates, weights)

    @seed(7)
    @given(
        # Few items over a wider universe: gains collide often and the items
        # above ``item_range`` can never be covered.
        item_range=st.integers(1, 6),
        extra_items=st.integers(0, 4),
        # Candidates drawn from a small pool of item sets, so duplicates
        # (exact gain ties) and empty sets are frequent.
        pool=st.lists(st.frozensets(st.integers(0, 5), max_size=4), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), max_size=20),
        # Weights in powers of two make gain / weight ties exact: 2/2 == 1/1.
        weight_picks=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=20, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_identical_on_tie_heavy_weighted_instances(
        self, item_range, extra_items, pool, picks, weight_picks
    ):
        candidates = [
            frozenset(item for item in pool[pick % len(pool)] if item < item_range)
            for pick in picks
        ]
        num_items = item_range + extra_items
        assert_same_solution(num_items, candidates, weight_picks[: len(candidates)])

    def test_validation_matches(self):
        for implementation in (solve, greedy_set_cover_eager):
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[1.0, 2.0])
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[0.0])
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[math.nan])
