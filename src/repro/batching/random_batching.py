"""Random question batching (paper Section III-A).

Each batch is formed by randomly drawing questions from the remaining question
set.  Because of the randomness a batch mixes similar and dissimilar questions,
so random batching sits between similarity-based and diversity-based batching.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch, QuestionBatcher
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair


class RandomQuestionBatcher(QuestionBatcher):
    """Shuffle the question set and chunk it into batches of ``batch_size``."""

    name = "random"

    def create_batches(
        self,
        questions: Sequence[EntityPair],
        features: np.ndarray,
        planner: NeighborPlanner | None = None,
    ) -> list[QuestionBatch]:
        indices = list(range(len(questions)))
        rng = random.Random(self.seed)
        rng.shuffle(indices)
        groups = [
            indices[start:start + self.batch_size]
            for start in range(0, len(indices), self.batch_size)
        ]
        return self._make_batches(groups, questions)
