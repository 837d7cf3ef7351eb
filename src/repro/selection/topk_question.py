"""Top-k-question demonstration selection (paper Section IV-C).

For every question in a batch, pick its ``k`` nearest pool demonstrations and
take the union as the batch's demonstration set
(``D_i = U_{q in B_i} kNN(q, Du)``).  Accuracy tends to be high because every
question gets a relevant reference, but the labeling cost (and prompt length)
is the largest of the four strategies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair
from repro.selection.base import DemonstrationSelector, SelectionResult


class TopKQuestionSelector(DemonstrationSelector):
    """Union of each question's k nearest demonstrations.

    Args:
        per_question_k: explicit ``k`` per question.  When ``None`` it is
            derived as ``max(1, num_demonstrations // batch size)`` so that the
            per-batch budget matches the other strategies (the paper sets the
            budget to the batch size of 8, i.e. k = 1 per question).
    """

    name = "topk-question"

    def __init__(
        self,
        num_demonstrations: int = 8,
        metric: str = "euclidean",
        seed: int = 0,
        per_question_k: int | None = None,
    ) -> None:
        super().__init__(num_demonstrations=num_demonstrations, metric=metric, seed=seed)
        if per_question_k is not None and per_question_k < 1:
            raise ValueError(f"per_question_k must be >= 1, got {per_question_k}")
        self.per_question_k = per_question_k

    def _resolve_k(self, batch: QuestionBatch) -> int:
        if self.per_question_k is not None:
            return self.per_question_k
        return max(1, self.num_demonstrations // max(1, len(batch)))

    def select(
        self,
        batches: Sequence[QuestionBatch],
        question_features: np.ndarray,
        pool: Sequence[EntityPair],
        pool_features: np.ndarray,
        planner: NeighborPlanner | None = None,
    ) -> SelectionResult:
        if not pool:
            raise ValueError("the demonstration pool is empty")
        distances = self._question_to_pool_distances(question_features, pool_features)

        per_batch: list[list[int]] = []
        for batch in batches:
            k = min(self._resolve_k(batch), len(pool))
            selected: list[int] = []
            for question_index in batch.indices:
                nearest = np.argsort(distances[question_index], kind="stable")[:k]
                selected.extend(int(index) for index in nearest)
            per_batch.append(selected)
        return self._build_result(batches, per_batch, pool)
