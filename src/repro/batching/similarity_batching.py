"""Similarity-based question batching (paper Section III-A).

Questions from the same DBSCAN cluster are grouped into the same batch so that
each batch contains mutually similar questions.  The remainder handling follows
the paper: when the remaining clusters are each smaller than the batch size,
repeatedly take the largest remaining cluster ``Cmax``, look for another
cluster whose size is exactly ``b - |Cmax|`` to complete the batch, and
otherwise top the batch up with randomly chosen questions from the next-largest
cluster.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch, QuestionBatcher
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair


class SimilarityQuestionBatcher(QuestionBatcher):
    """Fill each batch from within a single cluster of similar questions."""

    name = "similar"

    def create_batches(
        self,
        questions: Sequence[EntityPair],
        features: np.ndarray,
        planner: NeighborPlanner | None = None,
    ) -> list[QuestionBatch]:
        if not questions:
            return []
        rng = random.Random(self.seed)
        clusters = self._cluster_questions(features, planner=planner)
        groups: list[list[int]] = []

        # Stage 1: carve full batches out of every cluster.
        remainders: list[list[int]] = []
        for cluster in clusters:
            members = list(cluster)
            while len(members) >= self.batch_size:
                groups.append(members[:self.batch_size])
                members = members[self.batch_size:]
            if members:
                remainders.append(members)

        # Stage 2: the paper's remainder-merging rule.
        while remainders:
            remainders.sort(key=len, reverse=True)
            current = remainders.pop(0)
            needed = self.batch_size - len(current)
            if needed == 0 or not remainders:
                groups.append(current)
                continue
            # Prefer a cluster whose size exactly matches the shortfall.
            exact_index = next(
                (i for i, cluster in enumerate(remainders) if len(cluster) == needed), None
            )
            if exact_index is not None:
                partner = remainders.pop(exact_index)
                groups.append(current + partner)
                continue
            # Otherwise borrow a random subset from the next largest cluster.
            partner = remainders.pop(0)
            take = min(needed, len(partner))
            chosen = rng.sample(range(len(partner)), take)
            chosen_set = set(chosen)
            borrowed = [partner[i] for i in chosen]
            leftover = [value for i, value in enumerate(partner) if i not in chosen_set]
            groups.append(current + borrowed)
            if leftover:
                remainders.append(leftover)

        return self._make_batches(groups, questions)
