"""Unit and property-based tests for the string similarity functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from levenshtein_oracle import levenshtein_distance as oracle_distance

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
