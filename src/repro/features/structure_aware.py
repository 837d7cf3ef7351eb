"""Structure-aware feature extractor (paper Section III-B, Eqs. 4-5).

For an entity pair ``(a, b)`` over ``m`` attributes, the feature vector is the
``m``-dimensional vector of per-attribute string similarities
``v = [s_1, ..., s_m]`` where ``s_i`` is the Levenshtein ratio (BatchER-LR) or
the token Jaccard similarity (BatchER-JAC) between ``a.attr_i`` and
``b.attr_i``.  Missing values are handled explicitly: a missing-vs-present
attribute contributes 0 similarity, and missing-vs-missing contributes a
neutral 0.5 (the pair gives no evidence either way on that attribute).

:meth:`StructureAwareExtractor.extract_matrix` is the columnar primary path.
It collects the distinct value pairs of every attribute column and reads
their similarities from the process-wide similarity memo of
:mod:`repro.text.similarity` (:func:`~repro.text.similarity.memoized_similarities`),
which computes only the pairs it does not hold yet; ER attribute columns are
highly repetitive (brewery names, genres, manufacturers), and the simulated
LLM reads the same memo.  For BatchER-LR the misses of all columns run
through the lane-parallel Levenshtein kernel in one pass; other similarity
functions run pair by pair.  The memo is shared by every extractor, run and
thread of the process, and bounded by
``repro.text.similarity.SIMILARITY_MEMO_SIZE`` values.  The scalar
:meth:`~StructureAwareExtractor.extract` stays uncached and is the
equivalence oracle: both paths produce bit-identical vectors.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import EntityPair
from repro.features.base import FeatureExtractor
from repro.text.similarity import get_similarity_function, memoized_similarities

#: Similarity assigned when both attribute values are missing.
BOTH_MISSING_SIMILARITY = 0.5


class StructureAwareExtractor(FeatureExtractor):
    """Per-attribute string-similarity feature extractor.

    Args:
        attributes: the shared attribute schema of the dataset; determines the
            feature order and the vector dimensionality.
        similarity: name of the string similarity function
            (``"levenshtein_ratio"`` for BatchER-LR, ``"jaccard"`` for
            BatchER-JAC, or any other registered function).
    """

    def __init__(
        self,
        attributes: tuple[str, ...],
        similarity: str = "levenshtein_ratio",
    ) -> None:
        if not attributes:
            raise ValueError("attributes must be a non-empty tuple")
        self.attributes = tuple(attributes)
        self.similarity_name = similarity
        self._similarity = get_similarity_function(similarity)
        self.name = f"structure-{'lr' if similarity == 'levenshtein_ratio' else similarity}"

    @property
    def dimension(self) -> int:
        return len(self.attributes)

    def attribute_similarity(self, left: str | None, right: str | None) -> float:
        """Similarity of one attribute value pair, with explicit missing handling."""
        fixed = _missing_similarity(left, right)
        if fixed is not None:
            return fixed
        return float(self._similarity(left, right))

    def _attribute_similarities(
        self, keys: list[tuple[str | None, str | None]]
    ) -> np.ndarray:
        """:meth:`attribute_similarity` of every ``(left, right)`` key.

        Keys with a missing side take their fixed value; the others are read
        through the similarity memo.
        """
        fixed = [_missing_similarity(left, right) for left, right in keys]
        computed = memoized_similarities(
            self.similarity_name,
            [key for key, value in zip(keys, fixed) if value is None],
        )
        return np.array(_filled(fixed, computed), dtype=float)

    def extract(self, pair: EntityPair) -> np.ndarray:
        vector = np.empty(self.dimension, dtype=float)
        for index, attribute in enumerate(self.attributes):
            vector[index] = self.attribute_similarity(
                pair.left.value(attribute), pair.right.value(attribute)
            )
        return vector

    def extract_matrix(self, pairs) -> np.ndarray:
        """Columnar featurization: one similarity column per attribute.

        The *distinct* value pairs of all columns are read through the
        similarity memo in one call (for BatchER-LR its misses run through
        the lane-parallel Levenshtein kernel together), then the matrix is
        gathered from them in one indexing step.  Bit-identical to the scalar
        :meth:`extract` loop.
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros((0, self.dimension), dtype=float)
        # Each cell's index into the distinct keys, in first-seen order.
        distinct: dict[tuple[str | None, str | None], int] = {}
        cells = np.empty((len(pairs), self.dimension), dtype=np.intp)
        for column, attribute in enumerate(self.attributes):
            cells[:, column] = [
                distinct.setdefault(
                    (pair.left.value(attribute), pair.right.value(attribute)),
                    len(distinct),
                )
                for pair in pairs
            ]
        keys = list(distinct)
        del distinct  # only the keys are needed from here on
        return self._attribute_similarities(keys)[cells]


def _filled(values: list[float | None], fills: list[float]) -> list[float]:
    """``values`` with each ``None`` replaced by the next of ``fills``."""
    remaining = iter(fills)
    return [next(remaining) if value is None else value for value in values]


def _missing_similarity(left: str | None, right: str | None) -> float | None:
    """The fixed similarity of a pair with a missing side, else ``None``."""
    left_missing = left is None or str(left).strip() == ""
    right_missing = right is None or str(right).strip() == ""
    if left_missing and right_missing:
        return BOTH_MISSING_SIMILARITY
    if left_missing or right_missing:
        return 0.0
    return None
