"""Covering-based demonstration selection (paper Sections IV-D and V).

The strategy runs in two phases, both greedy set covers (Algorithm 1):

1. **Demonstration Set Generation** (Section V-A): over *all* questions of all
   batches, select a minimal subset ``Ds`` of the unlabeled pool such that
   every question has at least one demonstration within distance ``t``.
   Weights are 1 (each selected demonstration costs one manual label), so the
   greedy rule minimises the number of labeled demonstrations.

2. **Batch Covering** (Section V-B): for each batch, select a subset of ``Ds``
   covering every question of the batch while minimising the total *token*
   weight of the chosen demonstrations, which minimises the prompt (API) cost.

The distance threshold ``t`` defaults to the paper's rule: the 8th percentile
of all pairwise question distances.  Questions that no pool demonstration can
cover within ``t`` fall back to their single nearest demonstration so that the
prompt never leaves a question without any reference.

Scaling: the coverage relation "question q is within ``t`` of demonstration
d" is all the geometry either phase needs.  A
:class:`~repro.clustering.neighbors.NeighborPlanner` resolves ``t`` (exactly
up to 2,048 questions, from a seeded distance sample above) and builds a
sparse question→pool radius graph in fixed-size row blocks, so peak memory is
bounded by the block size and the ``(n, m)`` matrix is never materialised.
The selections are golden-tested against a test-only dense-matrix oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.distance import cross_distances
from repro.clustering.neighbors import NeighborPlanner, default_planner
from repro.data.schema import EntityPair
from repro.data.serialization import serialize_pair
from repro.selection.base import DemonstrationSelector, SelectionResult
from repro.selection.set_cover import greedy_set_cover
from repro.text.tokenizer import ApproxTokenizer

#: The paper's default: take the 8th percentile of pairwise question distances as t.
DEFAULT_THRESHOLD_PERCENTILE = 8.0


@dataclass(frozen=True)
class CoveringDiagnostics:
    """Diagnostics of a covering run, useful for ablations and reports."""

    threshold: float
    demonstration_set_size: int
    uncovered_questions: int
    fallback_questions: int


class CoveringSelector(DemonstrationSelector):
    """Two-phase covering-based demonstration selection.

    Args:
        threshold_percentile: percentile of pairwise question distances used as
            the covering radius ``t`` (paper default: 8).
        threshold: explicit radius overriding the percentile rule.
        tokenizer: tokenizer used to weight demonstrations by token count in
            the Batch Covering phase.
        planner: planner building the coverage geometry;
            defaults to the process-wide
            :func:`~repro.clustering.neighbors.default_planner`.
    """

    name = "covering"

    def __init__(
        self,
        num_demonstrations: int = 8,
        metric: str = "euclidean",
        seed: int = 0,
        threshold_percentile: float = DEFAULT_THRESHOLD_PERCENTILE,
        threshold: float | None = None,
        tokenizer: ApproxTokenizer | None = None,
        planner: NeighborPlanner | None = None,
    ) -> None:
        super().__init__(num_demonstrations=num_demonstrations, metric=metric, seed=seed)
        if not 0.0 < threshold_percentile < 100.0:
            raise ValueError("threshold_percentile must be in (0, 100)")
        if threshold is not None and threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        self.threshold_percentile = threshold_percentile
        self.threshold = threshold
        self.tokenizer = tokenizer or ApproxTokenizer()
        self.planner = planner
        #: Diagnostics of the last :meth:`select` call (None before the first call).
        self.last_diagnostics: CoveringDiagnostics | None = None

    # -- threshold ----------------------------------------------------------

    def resolve_threshold(
        self, question_features: np.ndarray, planner: NeighborPlanner | None = None
    ) -> float:
        """Compute the covering radius ``t`` from the question feature vectors.

        The planner resolves the percentile radius — exactly up to 2,048
        questions, from a seeded distance sample above.

        Args:
            planner: per-call override of the planner.
        """
        if self.threshold is not None:
            return self.threshold
        features = np.asarray(question_features, dtype=float)
        if features.shape[0] < 2:
            return 1.0
        active = planner or self.planner or default_planner()
        return active.resolve_radius(features, self.threshold_percentile, self.metric)

    # -- selection ----------------------------------------------------------

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
        question_features = np.asarray(question_features, dtype=float)
        pool_features = np.asarray(pool_features, dtype=float)
        active = planner or self.planner or default_planner()
        threshold = self.resolve_threshold(question_features, planner=active)
        num_pool = len(pool)
        # One blocked pass over the question-to-pool geometry yields both the
        # strict-radius coverage graph and each question's nearest pool
        # demonstration (the phase-1 fallback rule).
        graph, nearest = active.cross_graph(
            question_features,
            pool_features,
            threshold,
            metric=self.metric,
            inclusive=False,
            return_nearest=True,
        )
        assert nearest is not None

        # Phase 1 over the transposed graph: demo -> covered questions.
        generation = greedy_set_cover(graph.transpose(), graph)
        demonstration_set = list(generation.selected)

        fallback_questions = sorted(generation.uncovered_items)
        for question_index in fallback_questions:
            nearest_demo = int(nearest[question_index])
            if nearest_demo not in demonstration_set:
                demonstration_set.append(nearest_demo)

        token_weights = self._token_weights(pool, demonstration_set)
        set_weights = np.array([token_weights[demo] for demo in demonstration_set])
        set_demos = np.asarray(demonstration_set, dtype=np.int64)
        # Phase 2 reads the same graph, masked to the demonstration set:
        # ``set_rank[demo]`` is the demo's position in the set, or -1.
        set_rank = np.full(num_pool, -1, dtype=np.int64)
        set_rank[set_demos] = np.arange(len(set_demos))

        per_batch: list[list[int]] = []
        for batch in batches:
            questions = np.asarray(batch.indices, dtype=np.int64)
            ranks = set_rank[graph.gather(questions)]
            in_set = ranks >= 0
            positions = np.repeat(
                np.arange(len(questions)),
                graph.indptr[questions + 1] - graph.indptr[questions],
            )[in_set]
            # The candidates are the set's demonstrations covering one of the
            # batch's questions, in set order, so ties resolve as they would
            # over the whole set.
            candidates, local = np.unique(ranks[in_set], return_inverse=True)
            indptr = np.zeros(len(questions) + 1, dtype=np.int64)
            np.cumsum(np.bincount(positions, minlength=len(questions)), out=indptr[1:])
            by_position = replace(
                graph, indptr=indptr, indices=local,
                num_cols=len(candidates),
            )
            solution = greedy_set_cover(
                by_position.transpose(), by_position, set_weights[candidates]
            )
            chosen = set_demos[candidates[list(solution.selected)]].tolist()
            uncovered = questions[sorted(solution.uncovered_items)]
            if len(uncovered):
                # The fallback questions' (k, |Ds|) distance rows on demand —
                # cheaper than keeping the full matrix for these rare
                # questions.  Ordering by demonstration_set breaks ties
                # towards the earliest generated demonstration.
                rows = cross_distances(
                    question_features[uncovered], pool_features[set_demos],
                    metric=self.metric,
                )
                for nearest_demo in set_demos[np.argmin(rows, axis=1)].tolist():
                    if nearest_demo not in chosen:
                        chosen.append(nearest_demo)
            per_batch.append(chosen)

        self.last_diagnostics = CoveringDiagnostics(
            threshold=threshold,
            demonstration_set_size=len(demonstration_set),
            uncovered_questions=len(generation.uncovered_items),
            fallback_questions=len(fallback_questions),
        )
        return self._build_result(batches, per_batch, pool)

    # -- shared helpers ------------------------------------------------------

    def _token_weights(
        self, pool: Sequence[EntityPair], demonstration_set: Sequence[int]
    ) -> dict[int, float]:
        """Token weights of the generated set for the Batch Covering phase."""
        return {
            demo: max(1.0, float(self.tokenizer.count(serialize_pair(pool[demo]))))
            for demo in demonstration_set
        }
