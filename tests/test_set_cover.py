"""Tests for the greedy (weighted) set cover of Algorithm 1."""

import pytest
from dense_oracle import greedy_set_cover_eager
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection.set_cover import coverage_value, greedy_set_cover


class TestCoverageValue:
    def test_counts_distinct_items(self):
        assert coverage_value([{0, 1}, {1, 2}]) == 3
        assert coverage_value([]) == 0


class TestGreedySetCover:
    def test_simple_cover(self):
        coverage = [{0, 1}, {1, 2}, {3}]
        solution = greedy_set_cover(4, coverage)
        covered = set()
        for index in solution.selected:
            covered |= set(coverage[index])
        assert covered == {0, 1, 2, 3}
        assert not solution.uncovered_items

    def test_greedy_prefers_large_sets(self):
        coverage = [{0}, {1}, {2}, {0, 1, 2}]
        solution = greedy_set_cover(3, coverage)
        assert solution.selected == (3,)

    def test_weighted_cover_prefers_cheap_sets(self):
        # Candidate 0 covers everything but is very expensive; candidates 1-2
        # cover everything together at a lower combined efficiency per weight.
        coverage = [{0, 1, 2, 3}, {0, 1}, {2, 3}]
        weights = [100.0, 1.0, 1.0]
        solution = greedy_set_cover(4, coverage, weights)
        assert set(solution.selected) == {1, 2}
        assert solution.total_weight == pytest.approx(2.0)

    def test_uncoverable_items_reported(self):
        coverage = [{0}, {1}]
        solution = greedy_set_cover(3, coverage)
        assert 2 in solution.uncovered_items
        assert solution.covered_items == {0, 1}

    def test_zero_items(self):
        solution = greedy_set_cover(0, [{0, 1}])
        assert solution.selected == ()
        assert not solution.uncovered_items

    def test_no_candidates(self):
        solution = greedy_set_cover(3, [])
        assert solution.selected == ()
        assert solution.uncovered_items == {0, 1, 2}

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            greedy_set_cover(2, [{0}], weights=[1.0, 2.0])

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ValueError):
            greedy_set_cover(2, [{0}, {1}], weights=[1.0, 0.0])

    def test_coverage_outside_universe_ignored(self):
        solution = greedy_set_cover(2, [{0, 5, 9}, {1}])
        assert solution.covered_items == {0, 1}

    def test_greedy_matches_optimum_on_classic_instance(self):
        # Classic set cover instance where greedy happens to be optimal.
        coverage = [{0, 1, 2}, {2, 3}, {4, 5}, {0, 3, 4, 5}]
        solution = greedy_set_cover(6, coverage)
        assert len(solution.selected) == 2

    @given(
        num_items=st.integers(1, 25),
        candidates=st.lists(
            st.frozensets(st.integers(0, 24), max_size=6), min_size=1, max_size=30
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_all_coverable_items_covered(self, num_items, candidates):
        solution = greedy_set_cover(num_items, candidates)
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
        solution = greedy_set_cover(15, candidates, weights)
        expected = sum(weights[index] for index in solution.selected)
        assert solution.total_weight == pytest.approx(expected)


class TestDeterministicTieBreaking:
    def test_ties_resolve_to_lowest_candidate_index(self):
        # Candidates 1 and 3 tie exactly on (efficiency, gain); the lowest
        # index must win, deterministically.
        coverage = [{0}, {0, 1}, {2}, {0, 1}]
        solution = greedy_set_cover(3, coverage)
        assert solution.selected[0] == 1
        eager = greedy_set_cover_eager(3, coverage)
        assert eager.selected[0] == 1

    def test_weighted_efficiency_tie_prefers_higher_gain(self):
        # Equal efficiency (2/2 == 1/1) but different gain: the higher gain
        # wins; on a full tie the lower index wins.
        coverage = [{0}, {0, 1}, {0, 1}]
        weights = [1.0, 2.0, 2.0]
        for implementation in (greedy_set_cover, greedy_set_cover_eager):
            solution = implementation(2, coverage, weights)
            assert solution.selected[0] == 1


class TestLazyMatchesEager:
    def test_known_instances(self):
        instances = [
            (4, [{0, 1}, {1, 2}, {3}], None),
            (4, [{0, 1, 2, 3}, {0, 1}, {2, 3}], [100.0, 1.0, 1.0]),
            (3, [{0}, {1}], None),
            (0, [{0, 1}], None),
            (5, [], None),
        ]
        for num_items, coverage, weights in instances:
            assert greedy_set_cover(num_items, coverage, weights) == greedy_set_cover_eager(
                num_items, coverage, weights
            )

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
        lazy = greedy_set_cover(num_items, candidates, weights)
        eager = greedy_set_cover_eager(num_items, candidates, weights)
        assert lazy.selected == eager.selected
        assert lazy.covered_items == eager.covered_items
        assert lazy.uncovered_items == eager.uncovered_items
        assert lazy.total_weight == pytest.approx(eager.total_weight)

    def test_validation_matches(self):
        for implementation in (greedy_set_cover, greedy_set_cover_eager):
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[1.0, 2.0])
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[0.0])
