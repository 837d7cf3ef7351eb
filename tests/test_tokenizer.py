"""Tests for the approximate LLM tokenizer."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenizer import ApproxTokenizer, count_tokens


class TestApproxTokenizer:
    def setup_method(self):
        self.tokenizer = ApproxTokenizer()

    def test_empty_and_none(self):
        assert self.tokenizer.count("") == 0
        assert self.tokenizer.count(None) == 0

    def test_single_short_word(self):
        assert self.tokenizer.count("cat") == 1

    def test_long_word_costs_multiple_tokens(self):
        assert self.tokenizer.count("internationalization") >= 4

    def test_punctuation_counts(self):
        assert self.tokenizer.count("a, b; c!") >= 6

    def test_digits_grouped(self):
        result = self.tokenizer.tokenize("price: 123456")
        assert "123456" in result.chunks
        assert result.token_count >= 3

    def test_count_many_sums(self):
        texts = ["alpha beta", "gamma"]
        assert self.tokenizer.count_many(texts) == sum(self.tokenizer.count(t) for t in texts)

    def test_module_level_helper_matches_instance(self):
        text = "title: Samsung LED TV QX-4821B"
        assert count_tokens(text) == self.tokenizer.count(text)

    def test_longer_text_never_cheaper(self):
        base = "brand: Sony, model: XB-100"
        assert self.tokenizer.count(base + " extra words here") > self.tokenizer.count(base)

    @given(
        st.text(max_size=200)
        | st.lists(
            st.one_of(
                st.text(alphabet=string.ascii_letters, min_size=1, max_size=12),
                st.text(alphabet="0123456789٣٤५", min_size=1, max_size=10),
                st.text(alphabet=" \t\n", min_size=1, max_size=2),
                st.characters(),  # punctuation, non-ASCII letters, symbols
            ),
            max_size=30,
        ).map("".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_count_equals_the_tokenized_count(self, text):
        # count() takes the match-count shortcut; tokenize() is the
        # reference it must agree with, on non-ASCII letters and digits too.
        assert self.tokenizer.count(text) == self.tokenizer.tokenize(text).token_count

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_count_is_non_negative_and_deterministic(self, text):
        first = self.tokenizer.count(text)
        second = self.tokenizer.count(text)
        assert first == second
        assert first >= 0

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll",), whitelist_characters=" "), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_concatenation_superadditive_within_rounding(self, text):
        # Splitting a text in half never *increases* the total token count by
        # more than a couple of boundary tokens.
        midpoint = len(text) // 2
        whole = self.tokenizer.count(text)
        parts = self.tokenizer.count(text[:midpoint]) + self.tokenizer.count(text[midpoint:])
        assert parts >= whole - 1
