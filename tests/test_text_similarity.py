"""Unit and property-based tests for the string similarity functions."""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from levenshtein_oracle import dp_edit_distance
from levenshtein_oracle import levenshtein_distance as oracle_distance

from repro.text import similarity
from repro.text.similarity import (
    SIMILARITY_FUNCTIONS,
    available_similarity_functions,
    cosine_token_similarity,
    get_similarity_function,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_ratio,
    levenshtein_ratios,
    monge_elkan_similarity,
    overlap_coefficient,
    tokenize_value,
)

short_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" -."),
    max_size=30,
)


class TestTokenize:
    def test_basic_tokenization(self):
        assert tokenize_value("Here Comes The Fuzz [Explicit]") == [
            "here", "comes", "the", "fuzz", "explicit",
        ]

    def test_numbers_and_punctuation(self):
        assert tokenize_value("GPT-3.5, v0613!") == ["gpt", "3", "5", "v0613"]

    def test_none_and_empty(self):
        assert tokenize_value(None) == []
        assert tokenize_value("") == []
        assert tokenize_value("   ") == []


class TestLevenshtein:
    def test_identical_strings_have_zero_distance(self):
        assert levenshtein_distance("entity", "entity") == 0

    def test_known_distance(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_empty_versus_nonempty(self):
        assert levenshtein_distance("", "abcd") == 4
        assert levenshtein_distance("abcd", "") == 4

    def test_case_insensitive(self):
        assert levenshtein_distance("IPhone", "iphone") == 0

    def test_ratio_of_identical_strings_is_one(self):
        assert levenshtein_ratio("iphone-13", "iphone-13") == pytest.approx(1.0)

    def test_ratio_of_disjoint_strings(self):
        # Eq. 5: LR = 1 - LED / (len(a) + len(b)); replacing every character
        # costs len(a) edits, so fully disjoint equal-length strings score 0.5.
        assert levenshtein_ratio("aaaa", "zzzz") == pytest.approx(0.5)
        assert levenshtein_ratio("aaaa", "zzzzzzzz") < 0.5

    def test_ratio_both_empty(self):
        assert levenshtein_ratio("", "") == 1.0
        assert levenshtein_ratio(None, None) == 1.0

    def test_ratio_paper_example(self):
        # The paper's Section VI-G example contrasts LR("listen", "silent")
        # with its character-level Jaccard; under Eq. 5 the edit distance of 4
        # over a total length of 12 gives 1 - 4/12 = 2/3, well below the
        # character-Jaccard similarity of ~0.89 the paper quotes.
        assert levenshtein_ratio("listen", "silent") == pytest.approx(2 / 3)

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetry(self, left, right):
        assert levenshtein_distance(left, right) == levenshtein_distance(right, left)

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_ratio_bounds(self, left, right):
        assert 0.0 <= levenshtein_ratio(left, right) <= 1.0

    @given(short_text)
    @settings(max_examples=40, deadline=None)
    def test_identity_is_maximal(self, text):
        assert levenshtein_ratio(text, text) == pytest.approx(1.0)


#: Characters that exercise the kernel's bit masks and ``_normalise``: a
#: small alphabet (so strings share many characters), upper case and
#: whitespace that normalisation folds, a precomposed and a combining accent,
#: a character whose lower case is two code points, and non-BMP code points.
_KERNEL_ALPHABET = (
    "a", "b", "c", " ", "A", "B", "\t",
    "\u00e9", "e\u0301", "\u0130", "\U0001f600", "\U00010348",
)

#: Lengths on and around machine-word boundaries, and well past one word.
_WORD_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129, 201, 240)


@st.composite
def _edit_pairs(draw):
    """A string and a second one that is either an edited copy or independent."""
    length = draw(st.sampled_from(_WORD_LENGTHS) | st.integers(min_value=0, max_value=80))
    base = draw(
        st.lists(st.sampled_from(_KERNEL_ALPHABET), min_size=length, max_size=length).map("".join)
        | st.text(min_size=length, max_size=length)
    )
    if draw(st.booleans()):
        other = list(base)
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            position = draw(st.integers(min_value=0, max_value=len(other)))
            operation = draw(st.sampled_from(("insert", "delete", "substitute")))
            if operation == "insert":
                other.insert(position, draw(st.sampled_from(_KERNEL_ALPHABET)))
            elif other:
                index = min(position, len(other) - 1)
                if operation == "delete":
                    del other[index]
                else:
                    other[index] = draw(st.sampled_from(_KERNEL_ALPHABET))
        right = "".join(other)
    else:
        right = draw(st.text(max_size=draw(st.sampled_from(_WORD_LENGTHS))))
    if draw(st.booleans()):
        right = "  " + right.upper() + "\n"
    return base, right


class TestLevenshteinAgainstOracle:
    """The bit-parallel kernel against the two-row DP oracle."""

    @given(_edit_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_distance_matches_dp_oracle_and_is_symmetric(self, pair):
        left, right = pair
        expected = oracle_distance(left, right)
        assert levenshtein_distance(left, right) == expected
        assert levenshtein_distance(right, left) == expected

    @given(_edit_pairs())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_ratio_uses_the_exact_distance(self, pair):
        left, right = pair
        a, b = left.strip().lower(), right.strip().lower()
        expected = 1.0 if not a and not b else 1.0 - oracle_distance(a, b) / (len(a) + len(b))
        assert levenshtein_ratio(left, right) == expected

    def test_none_and_empty(self):
        assert levenshtein_distance(None, None) == 0
        assert levenshtein_distance(None, "  ") == 0
        assert levenshtein_distance(None, "abc") == 3
        assert levenshtein_distance("abc", None) == 3

    def test_normalisation_is_folded_before_the_kernel(self):
        assert levenshtein_distance("  Hello World\t", "hello world") == 0
        assert levenshtein_distance(" KITTEN ", "sitting") == 3

    @pytest.mark.parametrize("length", [63, 64, 65, 200, 257])
    def test_word_boundary_lengths(self, length):
        base = "ab" * (length // 2) + "a" * (length % 2)
        assert levenshtein_distance(base, base) == 0
        assert levenshtein_distance(base, "") == length
        # One change at either end: the last pattern bit and the first.
        assert levenshtein_distance(base, base[:-1] + "z") == 1
        assert levenshtein_distance(base, "z" + base[1:]) == 1
        assert levenshtein_distance(base, base + "z") == 1
        shifted = base[1:] + "z"
        assert levenshtein_distance(base, shifted) == oracle_distance(base, shifted)

    def test_non_bmp_and_combining_characters(self):
        assert levenshtein_distance("\U0001f600\U0001f601", "\U0001f600") == 1
        # A combining accent is its own code point, hence its own edit.
        assert levenshtein_distance("caf\u00e9", "cafe\u0301") == 2
        assert levenshtein_distance("cafe", "cafe\u0301") == 1


def _lane_edit_distances(lefts, rights):
    """``similarity._edit_distances`` of the normalised strings."""
    return similarity._edit_distances(
        list(map(similarity._normalise, lefts)), list(map(similarity._normalise, rights))
    )


def _assert_lanes_match(lefts, rights):
    """The lane kernel equals the DP oracle and the scalar ratio bit for bit,
    with either side as ``lefts``."""
    expected = [oracle_distance(left, right) for left, right in zip(lefts, rights)]
    scalar = np.array([levenshtein_ratio(left, right) for left, right in zip(lefts, rights)])
    for a, b in ((lefts, rights), (rights, lefts)):
        distances = _lane_edit_distances(a, b)
        # A cold memo, so that the ratios come from the lanes, not from an
        # earlier example.
        similarity.clear_similarity_memo()
        ratios = levenshtein_ratios(a, b)
        assert distances.dtype == np.int64 and ratios.dtype == np.float64
        assert distances.tolist() == expected
        assert ratios.tobytes() == scalar.tobytes()


class TestLaneKernel:
    """``_edit_distances``/``levenshtein_ratios`` against the oracles.

    ``_LANE_STEP_COST`` 0 sends every pair that is not equal and has no
    empty side through the lanes, however few there are; the default mixes
    scalar and lane pairs as production calls do.
    """

    @given(
        st.lists(_edit_pairs(), min_size=1, max_size=6),
        st.sampled_from((0, similarity._LANE_STEP_COST)),
    )
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_matches_the_scalar_kernel_and_the_dp_oracle(self, pairs, step_cost):
        lefts = [left for left, _ in pairs]
        rights = [right for _, right in pairs]
        with mock.patch.object(similarity, "_LANE_STEP_COST", step_cost):
            _assert_lanes_match(lefts, rights)

    @pytest.mark.parametrize("step_cost", [0, similarity._LANE_STEP_COST])
    def test_edge_cases_in_one_call(self, step_cost):
        pairs = [("", ""), (None, None), (None, "  "), ("abc", None), ("abc", "abc")]
        pairs += [("  Hello World\t", "hello world"), ("KITTEN", " kitten ")]
        pairs += [("\U0001f600\U0001f601", "\U0001f600"), ("caf\u00e9", "cafe\u0301")]
        pairs += [("a\ud800b", "ab"), ("\x00a", "a\x00"), ("\u0130x", "i\u0307x")]
        for length in (63, 64, 65, 129):
            base = "ab" * (length // 2) + "a" * (length % 2)
            pairs += [
                (base, base[:-1] + "z"),
                (base, "z" + base[1:]),
                (base, base + "z"),
                (base, base[1:] + "z"),
                (base, base.upper() + "  "),
                (base, "b"),
                (base[: length // 2], base),
            ]
        with mock.patch.object(similarity, "_LANE_STEP_COST", step_cost):
            _assert_lanes_match([left for left, _ in pairs], [right for _, right in pairs])

    def test_many_blocks_of_mixed_lengths(self):
        rng = random.Random(3)
        alphabet = "abcde \u00e9\U0001f600"

        def text(length):
            return "".join(rng.choice(alphabet) for _ in range(length))

        lefts = [text(rng.randrange(0, 140)) for _ in range(2500)]
        rights = [
            left[: rng.randrange(0, len(left) + 1)] + text(rng.randrange(0, 8))
            if rng.random() < 0.7 else text(rng.randrange(0, 140))
            for left in lefts
        ]
        distances = _lane_edit_distances(lefts, rights)
        assert distances.tolist() == [
            levenshtein_distance(left, right) for left, right in zip(lefts, rights)
        ]
        scalar = np.array([levenshtein_ratio(left, right) for left, right in zip(lefts, rights)])
        assert levenshtein_ratios(lefts, rights).tobytes() == scalar.tobytes()

    def test_empty_input_and_length_mismatch(self):
        assert similarity._edit_distances([], []).tolist() == []
        assert levenshtein_ratios([], []).tolist() == []
        with pytest.raises(ValueError, match="1 left and 2 right"):
            levenshtein_ratios(["a"], ["a", "b"])


def _cjk(rng, length, span):
    """``length`` distinct CJK ideographs drawn from the first ``span``."""
    return "".join(chr(0x4E00 + code) for code in rng.sample(range(span), length))


class TestLaneTableBudget:
    """A wide alphabet must not grow the lane kernel's character table past
    ``_LANE_TABLE_BYTES``: the lanes split into smaller runs, or go to the
    scalar kernel, and the ratios stay bit-identical to the scalar ones."""

    @pytest.mark.parametrize(
        "lanes, left_length, right_length, span",
        [
            # Five-word patterns whose unsplit table would be about 33 MB:
            # no run of lanes fits, so every pair runs on the scalar kernel.
            (64, 320, 1, 20_000),
            # One-word patterns over about 4,000 symbols, about 32 MB
            # unsplit: runs of 65 lanes.
            (1024, 60, 35, 4_000),
        ],
    )
    def test_peak_allocation_stays_within_the_budget(
        self, lanes, left_length, right_length, span
    ):
        rng = random.Random(lanes)
        lefts = [_cjk(rng, left_length, span) for _ in range(lanes)]
        rights = [
            left[: right_length // 2] + _cjk(rng, right_length - right_length // 2, span)
            for left in lefts
        ]
        characters = sum(map(len, lefts)) + sum(map(len, rights))
        tracemalloc.start()
        try:
            ratios = levenshtein_ratios(lefts, rights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Besides the table, the kernel keeps a few arrays of at most
        # 8 bytes per input character each.
        assert peak < similarity._LANE_TABLE_BYTES + 32 * characters
        scalar = np.array([levenshtein_ratio(left, right) for left, right in zip(lefts, rights)])
        assert ratios.tobytes() == scalar.tobytes()


class TestJaccard:
    def test_identical_token_sets(self):
        assert jaccard_similarity("red wireless mouse", "wireless red mouse") == 1.0

    def test_disjoint_token_sets(self):
        assert jaccard_similarity("alpha beta", "gamma delta") == 0.0

    def test_partial_overlap(self):
        # {"here","comes","the","fuzz"} vs {"here","comes","the","fuzz","explicit"}
        assert jaccard_similarity("Here Comes The Fuzz", "Here Comes The Fuzz [Explicit]") == pytest.approx(0.8)

    def test_both_empty_is_one(self):
        assert jaccard_similarity("", "") == 1.0

    def test_paper_example_listen_silent(self):
        # Token-level Jaccard cannot see character order; the paper notes the
        # character-level variant scores "listen"/"silent" much higher than LR.
        assert jaccard_similarity("listen", "silent") == 0.0

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, left, right):
        forward = jaccard_similarity(left, right)
        backward = jaccard_similarity(right, left)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0


class TestOtherSimilarities:
    def test_overlap_coefficient_subset_is_one(self):
        assert overlap_coefficient("samsung tv", "samsung tv 40 inch led") == 1.0

    def test_cosine_identical(self):
        assert cosine_token_similarity("a b c", "a b c") == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert cosine_token_similarity("a b", "c d") == 0.0

    def test_jaro_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_jaro_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_jaro_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("prefixed", "prefixes")
        boosted = jaro_winkler_similarity("prefixed", "prefixes")
        assert boosted >= plain

    def test_monge_elkan_token_alignment(self):
        value = monge_elkan_similarity("samsung galaxy tab", "galaxy tab samsung")
        assert value > 0.9

    def test_overlap_coefficient_divides_by_the_smaller_set(self):
        assert overlap_coefficient("a b c", "a b d e") == pytest.approx(2 / 3)

    def test_overlap_coefficient_one_side_empty_is_zero(self):
        assert overlap_coefficient("", "samsung tv") == 0.0

    def test_cosine_counts_repeated_tokens(self):
        # Token multisets, not sets: "a a b" is (2, 1) against (1, 1).
        assert cosine_token_similarity("a a b", "a b") == pytest.approx(3 / 10**0.5)

    def test_cosine_one_side_empty_is_zero(self):
        assert cosine_token_similarity("a b", None) == 0.0

    def test_jaro_second_known_value(self):
        assert jaro_similarity("dwayne", "duane") == pytest.approx(0.8222, abs=1e-3)

    def test_jaro_without_common_characters_is_zero(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_jaro_winkler_known_values(self):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(0.9611, abs=1e-3)
        assert jaro_winkler_similarity("dixon", "dicksonx") == pytest.approx(0.8133, abs=1e-3)

    def test_jaro_winkler_prefix_bonus_stops_at_four_characters(self):
        # Jaro is 5/6 and the common prefix is six characters long; only four count.
        jaro = jaro_similarity("abcdefgh", "abcdefxy")
        assert jaro == pytest.approx(5 / 6)
        assert jaro_winkler_similarity("abcdefgh", "abcdefxy") == pytest.approx(
            jaro + 4 * 0.1 * (1.0 - jaro)
        )

    def test_monge_elkan_averages_over_the_left_tokens(self):
        assert monge_elkan_similarity("apple", "apple pie crust") == 1.0
        assert monge_elkan_similarity("apple pie crust", "apple") < 1.0

    def test_monge_elkan_one_side_empty_is_zero(self):
        assert monge_elkan_similarity("apple", "") == 0.0

    @given(short_text, short_text)
    @settings(max_examples=40, deadline=None)
    def test_all_registered_functions_bounded(self, left, right):
        for name in available_similarity_functions():
            value = SIMILARITY_FUNCTIONS[name](left, right)
            assert 0.0 <= value <= 1.0 + 1e-9, name


SYMMETRIC_FUNCTIONS = sorted(set(SIMILARITY_FUNCTIONS) - {"monge_elkan"})


class TestRegisteredFunctionConventions:
    """Rules the module docstring promises for every registered function."""

    @pytest.mark.parametrize("name", sorted(SIMILARITY_FUNCTIONS))
    def test_identical_values_score_one(self, name):
        value = SIMILARITY_FUNCTIONS[name]("Samsung Galaxy Tab 10.1", "samsung galaxy tab 10.1")
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("name", sorted(SIMILARITY_FUNCTIONS))
    def test_none_is_read_as_the_empty_string(self, name):
        function = SIMILARITY_FUNCTIONS[name]
        assert function(None, None) == function("", "") == 1.0
        assert function(None, "stone ipa") == function("", "stone ipa")

    @pytest.mark.parametrize("name", SYMMETRIC_FUNCTIONS)
    @given(short_text, short_text)
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, name, left, right):
        function = SIMILARITY_FUNCTIONS[name]
        assert function(left, right) == pytest.approx(function(right, left))


class TestRegistry:
    def test_lookup_known_function(self):
        assert get_similarity_function("jaccard") is jaccard_similarity

    def test_lookup_unknown_function_raises(self):
        with pytest.raises(KeyError, match="unknown similarity function"):
            get_similarity_function("does-not-exist")

    def test_registry_is_complete(self):
        assert set(available_similarity_functions()) == set(SIMILARITY_FUNCTIONS)
