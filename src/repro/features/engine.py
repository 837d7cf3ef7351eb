"""The columnar feature engine: one featurization front end per session.

Featurization is the CPU hot path of the whole framework — batching quality
and demonstration-selection quality both rest on the feature vectors (paper
Section III-B), and the pipeline's featurize stage, a ``Resolver``'s
persistent pool and every service flush all featurize.  :class:`FeatureStore`
gives those three paths one shared subsystem:

* **columnar extraction** — every call is featurized through the extractor's
  :meth:`~repro.features.base.FeatureExtractor.extract_matrix`, hitting the
  vectorized paths (per-attribute similarity columns, batched sentence
  encoding) instead of per-pair Python loops.  Reuse lives below the store:
  the structure-aware extractors read every value pair through the
  process-wide similarity memo
  (:func:`~repro.text.similarity.memoized_similarities`) and the sentence
  encoder memoizes its texts, so a repeated pair costs lookups, not a
  recomputation;
* **one planning policy per store** — the store owns the
  :class:`~repro.clustering.neighbors.NeighborPlanner` that clustering-based
  batchers and the covering selector plan through (exact sparse
  epsilon-neighbor graphs built in fixed-size blocks), so its counters
  describe the whole run;
* **chunked featurization** — :meth:`FeatureStore.extract_matrix` walks its
  input in fixed-size blocks (each block is one columnar extractor call), so
  peak *working* memory beyond the output matrix is bounded by the block
  size.

The store is thread-safe: a service flushes micro-batches from its consumer
thread while HTTP handler threads read statistics.  Extraction is serialized
under a dedicated lock (the wrapped extractors keep unsynchronized memo
caches), while stats stay concurrent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.clustering.neighbors import NeighborPlanner
from repro.data.schema import EntityPair
from repro.features.base import FeatureExtractor

#: Pairs featurized per columnar extractor call in chunked extraction.
DEFAULT_EXTRACT_BLOCK_SIZE = 8192


@dataclass(frozen=True)
class FeatureStoreStats:
    """A point-in-time snapshot of a store's counters.

    Attributes:
        chunked_extracts: ``extract_matrix`` calls that spanned more than one
            extraction block.
        planning: counters of the store's
            :class:`~repro.clustering.neighbors.NeighborPlanner` (graphs and
            cross joins built, radii sampled, edges kept).
    """

    chunked_extracts: int = 0
    planning: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Return a plain-dict snapshot (JSON-serializable, for ``/stats``)."""
        return {
            "chunked_extracts": self.chunked_extracts,
            "planning": dict(self.planning),
        }


class FeatureStore:
    """Chunked, thread-safe featurization front end over one extractor.

    Args:
        extractor: the extractor computing the vectors; its vectorized
            ``extract_matrix`` is the only computation path used.
        planner: batch-planning policy; a default
            :class:`~repro.clustering.neighbors.NeighborPlanner` when omitted.
        extract_block_size: pairs featurized per columnar extractor call;
            larger inputs are walked block by block (output rows are
            bit-identical to one-shot extraction — extractor rows are
            independent).
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        planner: NeighborPlanner | None = None,
        extract_block_size: int = DEFAULT_EXTRACT_BLOCK_SIZE,
    ) -> None:
        if extract_block_size < 1:
            raise ValueError(
                f"extract_block_size must be >= 1, got {extract_block_size}"
            )
        self.extractor = extractor
        self.extract_block_size = extract_block_size
        self.planner = planner if planner is not None else NeighborPlanner()
        # Serializes extractor computation: the extractors' internal memo
        # caches (text vectors, feature hashes) are not synchronized, so only
        # one thread may extract at a time.
        self._compute_lock = threading.Lock()
        self._chunked_extracts = 0

    @property
    def dimension(self) -> int:
        """Dimensionality of the produced feature vectors."""
        return self.extractor.dimension

    def extract_matrix(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Return the ``(n, d)`` feature matrix of ``pairs``.

        Pairs are featurized in columnar ``extract_matrix`` calls on the
        wrapped extractor, at most ``extract_block_size`` pairs per call, so
        working memory stays bounded however long the input is.  Output rows
        are bit-identical to scalar per-pair extraction (extractor rows are
        independent, so block composition cannot change them).
        """
        pairs = list(pairs)
        matrix = np.empty((len(pairs), self.dimension), dtype=float)
        block = self.extract_block_size
        if len(pairs) > block:
            with self._compute_lock:
                self._chunked_extracts += 1
        for start in range(0, len(pairs), block):
            stop = min(start + block, len(pairs))
            with self._compute_lock:
                matrix[start:stop] = self.extractor.extract_matrix(pairs[start:stop])
        return matrix

    # -- accounting ----------------------------------------------------------

    def stats(self) -> FeatureStoreStats:
        """Return a point-in-time snapshot of the store's counters."""
        return FeatureStoreStats(
            chunked_extracts=self._chunked_extracts,
            planning=self.planner.stats().to_dict(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FeatureStore(extractor={self.extractor.name!r})"


def create_feature_store(variant: str, attributes: tuple[str, ...]) -> FeatureStore:
    """Build a :class:`FeatureStore` over one of the paper's extractor variants."""
    from repro.features.factory import create_feature_extractor

    return FeatureStore(create_feature_extractor(variant, attributes))
