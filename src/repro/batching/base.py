"""Question batching base types and invariant checks."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clustering.dbscan import DBSCAN
from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair


@dataclass(frozen=True)
class QuestionBatch:
    """One batch of questions destined for a single LLM call.

    Attributes:
        batch_id: position of the batch in the batching order.
        indices: indices of the batch's questions in the original question set.
        pairs: the question entity pairs themselves (same order as ``indices``).
    """

    batch_id: int
    indices: tuple[int, ...]
    pairs: tuple[EntityPair, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.pairs):
            raise ValueError("indices and pairs must have the same length")
        if not self.indices:
            raise ValueError("a batch must contain at least one question")

    def __len__(self) -> int:
        return len(self.pairs)


class QuestionBatcher(ABC):
    """Base class for question batching strategies.

    Args:
        batch_size: maximum number of questions per batch (the paper uses 8).
        seed: RNG seed for any randomised decisions.
    """

    #: Strategy name used in configuration and reports.
    name: str = "batcher"

    def __init__(self, batch_size: int = 8, seed: int = 0) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.seed = seed

    @abstractmethod
    def create_batches(
        self,
        questions: Sequence[EntityPair],
        features: np.ndarray,
        planner: NeighborPlanner | None = None,
    ) -> list[QuestionBatch]:
        """Group ``questions`` into batches.

        Implementations must place every question in exactly one batch and must
        not exceed ``batch_size`` questions per batch.

        Args:
            questions: the question pairs, in evaluation order.
            features: ``(len(questions), d)`` feature matrix.
            planner: optional routing policy
                (:class:`~repro.clustering.neighbors.NeighborPlanner`) for the
                clustering step's epsilon-neighbor graph.  Ignored by
                strategies that never look at distances.
        """

    def _cluster_questions(
        self, features: np.ndarray, planner: NeighborPlanner | None = None
    ) -> list[list[int]]:
        """Cluster question feature vectors with DBSCAN (noise → singleton clusters)."""
        clusterer = DBSCAN(min_samples=2)
        result = clusterer.fit(np.asarray(features, dtype=float), planner=planner)
        return result.clusters(include_noise_as_singletons=True)

    def _make_batches(
        self, question_groups: list[list[int]], questions: Sequence[EntityPair]
    ) -> list[QuestionBatch]:
        """Materialise index groups into :class:`QuestionBatch` objects."""
        batches = []
        for batch_id, group in enumerate(question_groups):
            batches.append(
                QuestionBatch(
                    batch_id=batch_id,
                    indices=tuple(group),
                    pairs=tuple(questions[index] for index in group),
                )
            )
        return batches


def validate_batching(
    batches: Sequence[QuestionBatch], num_questions: int, batch_size: int
) -> None:
    """Check the batching invariants required by the paper's framework.

    Every question index in ``range(num_questions)`` must appear in exactly one
    batch, and no batch may exceed ``batch_size``.

    Raises:
        ValueError: if any invariant is violated.
    """
    seen: list[int] = []
    for batch in batches:
        if len(batch) > batch_size:
            raise ValueError(
                f"batch {batch.batch_id} has {len(batch)} questions, exceeding "
                f"the batch size {batch_size}"
            )
        seen.extend(batch.indices)
    if len(seen) != len(set(seen)):
        raise ValueError("some questions appear in more than one batch")
    missing = set(range(num_questions)) - set(seen)
    if missing:
        raise ValueError(f"questions missing from all batches: {sorted(missing)[:10]}")
    extra = set(seen) - set(range(num_questions))
    if extra:
        raise ValueError(f"batches contain unknown question indices: {sorted(extra)[:10]}")
