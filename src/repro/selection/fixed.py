"""Fixed demonstration selection (paper Section IV-A).

Sample ``K`` demonstrations from the pool once, label them, and attach the same
set to every batch.  The labeling cost is fixed (K pairs) but the demonstrations
are unrelated to the questions, which is why ICL accuracy with fixed random
demonstrations is known to be unstable.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair
from repro.selection.base import DemonstrationSelector, SelectionResult


class FixedDemonstrationSelector(DemonstrationSelector):
    """One random demonstration set reused for every batch."""

    name = "fixed"

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
        rng = random.Random(self.seed)
        count = min(self.num_demonstrations, len(pool))
        fixed_indices = rng.sample(range(len(pool)), count)
        # Prefer a label-balanced fixed set when possible: ICL with only one
        # class of demonstrations is degenerate, and the paper's fixed strategy
        # samples from a pool that contains both classes.
        labels = [pool[index].label for index in fixed_indices]
        if len(set(labels)) == 1 and len(pool) > count:
            wanted = {label for label in (0, 1) if label not in {int(l) for l in labels}}
            for index in rng.sample(range(len(pool)), len(pool)):
                if int(pool[index].label) in wanted:
                    fixed_indices[-1] = index
                    break
        per_batch = [list(fixed_indices) for _ in batches]
        return self._build_result(batches, per_batch, pool)
