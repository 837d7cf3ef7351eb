"""Top-k-batch demonstration selection (paper Section IV-B).

The relevance of a demonstration ``d`` to a batch ``B`` is defined as
``dist*(B, d) = min_{q in B} dist(q, d)`` (Eq. 6); the selector picks the ``K``
pool demonstrations with the smallest ``dist*`` per batch.  Labeling cost grows
with the number of batches because different batches tend to pick different
demonstrations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair
from repro.selection.base import DemonstrationSelector, SelectionResult


class TopKBatchSelector(DemonstrationSelector):
    """Select the K pool demonstrations nearest to each batch as a whole."""

    name = "topk-batch"

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
        count = min(self.num_demonstrations, len(pool))

        per_batch: list[list[int]] = []
        for batch in batches:
            batch_rows = distances[list(batch.indices), :]
            # Eq. 6: relevance of each pool demo to the batch is its distance to
            # the closest question of the batch.
            batch_to_pool = batch_rows.min(axis=0)
            nearest = np.argsort(batch_to_pool, kind="stable")[:count]
            per_batch.append([int(index) for index in nearest])
        return self._build_result(batches, per_batch, pool)
