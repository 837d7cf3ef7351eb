"""Diversity-based question batching (paper Section III-A).

Each batch draws at most one question from each of ``batch_size`` *different*
clusters, so the questions inside a batch are mutually dissimilar.  When fewer
clusters than the batch size remain, questions are taken from the remaining
clusters in a round-robin manner (paper Example 4 part 2).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch, QuestionBatcher
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair


class DiversityQuestionBatcher(QuestionBatcher):
    """Compose each batch from questions of different clusters."""

    name = "diverse"

    def create_batches(
        self,
        questions: Sequence[EntityPair],
        features: np.ndarray,
        planner: NeighborPlanner | None = None,
    ) -> list[QuestionBatch]:
        if not questions:
            return []
        clusters = self._cluster_questions(features, planner=planner)
        # Clusters are FIFO queues, largest first, so early batches are maximally diverse.
        queues: deque[deque[int]] = deque(
            deque(cluster) for cluster in sorted(clusters, key=len, reverse=True)
        )

        groups: list[list[int]] = []
        while queues:
            batch: list[int] = []
            touched: deque[deque[int]] = deque()

            # Phase 1: one question from up to batch_size distinct clusters.
            while queues and len(batch) < self.batch_size:
                queue = queues.popleft()
                batch.append(queue.popleft())
                if queue:
                    touched.append(queue)

            # Phase 2: fewer clusters than the batch size remain — top the batch
            # up round-robin from the clusters touched this round.
            while touched and len(batch) < self.batch_size:
                queue = touched.popleft()
                batch.append(queue.popleft())
                if queue:
                    touched.append(queue)

            # Surviving clusters go back for the next round.
            queues.extend(queue for queue in touched if queue)
            groups.append(batch)

        return self._make_batches(groups, questions)
