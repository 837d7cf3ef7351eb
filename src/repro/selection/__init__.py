"""Demonstration selection strategies (paper Section IV, Table I).

Given the question batches and an unlabeled demonstration pool, a selector
chooses which pool pairs to (manually) label and which labeled demonstrations
to attach to each batch prompt.  Four strategies are provided:

* :class:`FixedDemonstrationSelector` — one random set of K demos reused for
  every batch;
* :class:`TopKBatchSelector` — the K pool pairs closest to the batch (minimum
  distance to any question in the batch);
* :class:`TopKQuestionSelector` — the k nearest pool pairs of *each* question,
  unioned per batch;
* :class:`CoveringSelector` — the paper's proposal: a greedy set cover first
  generates a minimal demonstration set covering all questions, then a greedy
  weighted (token-cost) set cover allocates demonstrations to each batch.
"""

from repro.selection.base import BatchDemonstrations, DemonstrationSelector, SelectionResult
from repro.selection.fixed import FixedDemonstrationSelector
from repro.selection.topk_batch import TopKBatchSelector
from repro.selection.topk_question import TopKQuestionSelector
from repro.selection.covering import CoveringSelector
from repro.selection.set_cover import coverage_value, greedy_set_cover
from repro.selection.factory import create_selector

__all__ = [
    "BatchDemonstrations",
    "CoveringSelector",
    "DemonstrationSelector",
    "FixedDemonstrationSelector",
    "SelectionResult",
    "TopKBatchSelector",
    "TopKQuestionSelector",
    "coverage_value",
    "create_selector",
    "greedy_set_cover",
]
