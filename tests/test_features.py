"""Tests for the structure-aware and semantics-based feature extractors."""

import numpy as np
import pytest
from levenshtein_oracle import dp_edit_distance

from repro.data.registry import load_dataset
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.features import (
    SemanticExtractor,
    StructureAwareExtractor,
    create_feature_extractor,
)
from repro.features import structure_aware
from repro.features.structure_aware import BOTH_MISSING_SIMILARITY
from repro.text import similarity


def make_pair(left_values, right_values, label=MatchLabel.MATCH):
    return EntityPair(
        pair_id="p0",
        left=Record("A-0", left_values),
        right=Record("B-0", right_values),
        label=label,
    )


MUSIC_ATTRIBUTES = ("title", "album", "genre")


class TestStructureAwareExtractor:
    def test_dimension_equals_attribute_count(self):
        extractor = StructureAwareExtractor(MUSIC_ATTRIBUTES)
        assert extractor.dimension == 3

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError):
            StructureAwareExtractor(())

    def test_identical_pair_has_all_ones(self):
        values = {"title": "Rashi", "album": "Here Comes the Fuzz", "genre": "Music"}
        extractor = StructureAwareExtractor(MUSIC_ATTRIBUTES)
        vector = extractor.extract(make_pair(values, dict(values)))
        assert np.allclose(vector, 1.0)

    def test_paper_example5_shape(self):
        # Paper Example 5: titles identical, album slightly different, genres
        # quite different -> monotonically decreasing similarities.
        extractor = StructureAwareExtractor(MUSIC_ATTRIBUTES)
        pair = make_pair(
            {"title": "Rashi", "album": "Here Comes the Fuzz", "genre": "Dance,Music,Hip-Hop"},
            {"title": "Rashi", "album": "Here Comes The Fuzz [Explicit]", "genre": "Music"},
        )
        vector = extractor.extract(pair)
        assert vector[0] == pytest.approx(1.0)
        assert 0.5 < vector[1] < 1.0
        assert vector[2] < vector[1]

    def test_missing_value_handling(self):
        extractor = StructureAwareExtractor(MUSIC_ATTRIBUTES)
        pair = make_pair(
            {"title": "Rashi", "album": None, "genre": None},
            {"title": "Rashi", "album": "FOUR", "genre": None},
        )
        vector = extractor.extract(pair)
        assert vector[1] == 0.0  # one side missing
        assert vector[2] == BOTH_MISSING_SIMILARITY  # both sides missing

    def test_jaccard_variant_uses_token_sets(self):
        extractor = StructureAwareExtractor(("title",), similarity="jaccard")
        pair = make_pair({"title": "red wireless mouse"}, {"title": "wireless red mouse"})
        assert extractor.extract(pair)[0] == pytest.approx(1.0)

    def test_extract_matrix_shape(self, beer_dataset, beer_extractor):
        pairs = list(beer_dataset.splits.test)[:10]
        matrix = beer_extractor.extract_matrix(pairs)
        assert matrix.shape == (10, len(beer_dataset.attributes))
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()

    def test_extract_matrix_empty(self, beer_extractor):
        assert beer_extractor.extract_matrix([]).shape == (0, beer_extractor.dimension)

    def test_values_bounded(self, beer_dataset, beer_question_features):
        assert ((beer_question_features >= 0.0) & (beer_question_features <= 1.0)).all()


class TestSimilarityMemoBound:
    """A batched insert never leaves the shared similarity memo above its bound."""

    @pytest.mark.parametrize("similarity_name", ["levenshtein_ratio", "jaccard"])
    def test_one_call_with_more_distinct_pairs_than_the_bound(
        self, monkeypatch, similarity_name
    ):
        bound = 8
        monkeypatch.setattr(similarity, "SIMILARITY_MEMO_SIZE", bound)
        extractor = StructureAwareExtractor(MUSIC_ATTRIBUTES, similarity=similarity_name)
        pairs = [
            make_pair(
                {"title": f"title {index}", "album": f"album {index}", "genre": "pop"},
                {"title": f"title {index + 1}", "album": None, "genre": "rock"},
            )
            for index in range(12)
        ]
        oracle = np.vstack([extractor.extract(pair) for pair in pairs])
        assert similarity.similarity_memo_size() == 0, "extract() must stay uncached"
        for repeat in range(2):
            # The second pass finds part of its pairs memoized.
            matrix = extractor.extract_matrix(pairs[repeat:])
            assert similarity.similarity_memo_size() <= bound
            assert matrix.tobytes() == oracle[repeat:].tobytes()
        extractor.extract_matrix(pairs[:2])
        assert 0 < similarity.similarity_memo_size() <= bound


class TestLevenshteinKernelDifferential:
    """BatchER-LR features are bit-identical to ratios from the DP oracle."""

    @pytest.mark.parametrize("name, scale", [("beer", 1.0), ("ab", 0.04)])
    def test_lr_matrix_is_bit_identical_under_the_dp_oracle(self, monkeypatch, name, scale):
        dataset = load_dataset(name, seed=7, scale=scale)
        pairs = list(dataset.candidate_pairs)
        kernel = create_feature_extractor("lr", dataset.attributes).extract_matrix(pairs)

        seen: list[tuple[str, str]] = []
        longest: list[int] = []

        def dp_ratios(lefts, rights):
            # Eq. 5 over the DP distance, for every value pair the memo
            # sends the lane-parallel kernel.
            ratios = []
            for left, right in zip(lefts, rights):
                a, b = similarity._normalise(left), similarity._normalise(right)
                seen.append((left, right))
                longest.append(max(len(a), len(b)))
                total = len(a) + len(b)
                ratios.append(1.0 if total == 0 else 1.0 - dp_edit_distance(a, b) / total)
            return np.array(ratios, dtype=float)

        monkeypatch.setattr(similarity, "_lane_ratios", dp_ratios)
        # The kernel run filled the memo: empty it, or the oracle sees nothing.
        similarity.clear_similarity_memo()
        oracle = create_feature_extractor("lr", dataset.attributes).extract_matrix(pairs)
        distinct = {
            (pair.left.value(attribute), pair.right.value(attribute))
            for pair in pairs
            for attribute in dataset.attributes
        }
        compared = {
            key for key in distinct if structure_aware._missing_similarity(*key) is None
        }
        # The oracle saw every distinct value pair with both sides present, once.
        assert sorted(seen) == sorted(compared)
        if name == "ab":
            # ab's descriptions run past one 64-bit word: real multi-word inputs.
            assert sum(length > 64 for length in longest) > 100
        assert kernel.tobytes() == oracle.tobytes()


class TestSemanticExtractor:
    def test_dimension_from_encoder(self):
        extractor = SemanticExtractor(MUSIC_ATTRIBUTES)
        assert extractor.dimension == 256

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError):
            SemanticExtractor(())

    def test_deterministic(self):
        extractor = SemanticExtractor(MUSIC_ATTRIBUTES)
        pair = make_pair(
            {"title": "Rashi", "album": "Here Comes the Fuzz", "genre": "Music"},
            {"title": "Rashi", "album": "Here Comes The Fuzz", "genre": "Pop"},
        )
        assert np.allclose(extractor.extract(pair), extractor.extract(pair))

    def test_similar_pairs_have_similar_embeddings(self):
        extractor = SemanticExtractor(MUSIC_ATTRIBUTES)
        base = make_pair(
            {"title": "Rashi", "album": "Here Comes the Fuzz", "genre": "Music"},
            {"title": "Rashi", "album": "Here Comes The Fuzz", "genre": "Music"},
        )
        near = make_pair(
            {"title": "Rashi", "album": "Here Comes the Fuzz", "genre": "Pop"},
            {"title": "Rashi", "album": "Here Comes The Fuzz", "genre": "Music"},
        )
        far = make_pair(
            {"title": "Act My Age", "album": "FOUR", "genre": "Pop"},
            {"title": "Change My Mind", "album": "Take Me Home", "genre": "Pop"},
        )
        base_vector = extractor.extract(base)
        assert np.linalg.norm(base_vector - extractor.extract(near)) < np.linalg.norm(
            base_vector - extractor.extract(far)
        )


class TestFactory:
    def test_lr_variant(self):
        extractor = create_feature_extractor("lr", MUSIC_ATTRIBUTES)
        assert isinstance(extractor, StructureAwareExtractor)
        assert extractor.similarity_name == "levenshtein_ratio"

    def test_jaccard_aliases(self):
        for alias in ("jaccard", "JAC", "jac"):
            extractor = create_feature_extractor(alias, MUSIC_ATTRIBUTES)
            assert extractor.similarity_name == "jaccard"

    def test_semantic_aliases(self):
        for alias in ("semantic", "SEM", "sbert"):
            assert isinstance(create_feature_extractor(alias, MUSIC_ATTRIBUTES), SemanticExtractor)

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError, match="unknown feature extractor"):
            create_feature_extractor("tfidf", MUSIC_ATTRIBUTES)
