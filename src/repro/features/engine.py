"""The columnar feature engine: a content-addressed store of feature vectors.

Featurization is the CPU hot path of the whole framework — batching quality
and demonstration-selection quality both rest on the feature vectors (paper
Section III-B), and the same pairs are featurized again and again by the
pipeline's featurize stage, a ``Resolver``'s persistent pool and every service
flush.  :class:`FeatureStore` turns those three scalar paths into one shared
subsystem:

* **content addressing** — vectors are keyed by the canonical
  :func:`~repro.data.fingerprint.pair_fingerprint` (the same scheme as the
  service's pair-level result cache), so any two pairs with identical record
  contents share one cached vector regardless of ids or submitters;
* **columnar misses** — pairs absent from the store are featurized in one
  :meth:`~repro.features.base.FeatureExtractor.extract_matrix` call, hitting
  the extractors' vectorized paths (per-attribute similarity columns, batched
  sentence encoding) instead of per-pair Python loops;
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
thread while HTTP handler threads read statistics.  Miss computation is
serialized under a dedicated lock (the wrapped extractors keep unsynchronized
memo caches), while lookups, stats and gets stay concurrent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.clustering.neighbors import NeighborPlanner
from repro.data.fingerprint import pair_fingerprint
from repro.data.schema import EntityPair
from repro.features.base import FeatureExtractor

#: Default bound on the number of cached feature vectors.
DEFAULT_CAPACITY = 65536

#: Pairs featurized per columnar extractor call in chunked extraction.
DEFAULT_EXTRACT_BLOCK_SIZE = 8192


@dataclass(frozen=True)
class FeatureStoreStats:
    """A point-in-time snapshot of a store's counters.

    Attributes:
        size: number of cached feature vectors.
        capacity: maximum number of cached vectors (LRU eviction beyond).
        hits / misses: vector lookup outcomes across all ``extract_matrix``
            calls (one lookup per input pair).
        evictions: vectors dropped by the LRU bound so far.
        chunked_extracts: ``extract_matrix`` calls that spanned more than one
            extraction block.
        planning: counters of the store's
            :class:`~repro.clustering.neighbors.NeighborPlanner` (graphs and
            cross joins built, radii sampled, edges kept).
    """

    size: int
    capacity: int
    hits: int
    misses: int
    evictions: int
    chunked_extracts: int = 0
    planning: dict[str, object] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of vector lookups served from the store (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, object]:
        """Return a plain-dict snapshot (JSON-serializable, for ``/stats``)."""
        return {
            "size": self.size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "chunked_extracts": self.chunked_extracts,
            "planning": dict(self.planning),
        }


class FeatureStore:
    """Content-addressed, memoizing front end over one feature extractor.

    Args:
        extractor: the extractor computing vectors for cache misses; its
            vectorized ``extract_matrix`` is the only computation path used.
        capacity: maximum number of cached vectors; the least-recently-used
            vector is evicted on overflow.
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
        capacity: int = DEFAULT_CAPACITY,
        planner: NeighborPlanner | None = None,
        extract_block_size: int = DEFAULT_EXTRACT_BLOCK_SIZE,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if extract_block_size < 1:
            raise ValueError(
                f"extract_block_size must be >= 1, got {extract_block_size}"
            )
        self.extractor = extractor
        self.capacity = capacity
        self.extract_block_size = extract_block_size
        self.planner = planner if planner is not None else NeighborPlanner()
        self._vectors: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.RLock()
        # Serializes extractor computation: the extractors' internal memo
        # caches (value-pair similarities, text vectors, feature hashes) are
        # not synchronized, so only one thread may compute misses at a time.
        self._compute_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._chunked_extracts = 0

    @property
    def dimension(self) -> int:
        """Dimensionality of the stored feature vectors."""
        return self.extractor.dimension

    @property
    def name(self) -> str:
        """Name of the wrapped extractor."""
        return self.extractor.name

    @property
    def spill_tag(self) -> str:
        """Provenance tag recorded next to vectors in service spill files.

        Combines the extractor name and its attribute schema, so a
        warm-start can reject vectors computed by a different extractor
        variant (same dimension, different metric) or over a different
        schema.  The schema is encoded as the tuple ``repr`` — an
        unambiguous quoting, so attribute names containing delimiter
        characters cannot make two different schemas collide.
        """
        attributes = tuple(getattr(self.extractor, "attributes", ()))
        return f"{self.extractor.name}/{attributes!r}"

    def __len__(self) -> int:
        with self._lock:
            return len(self._vectors)

    # -- vector store --------------------------------------------------------

    def fingerprint(self, pair: EntityPair) -> str:
        """Canonical content fingerprint of ``pair`` (the store's key)."""
        return pair_fingerprint(pair)

    def get(self, fingerprint: str) -> np.ndarray | None:
        """Return a copy of the cached vector for ``fingerprint``, if any."""
        with self._lock:
            vector = self._vectors.get(fingerprint)
            if vector is None:
                return None
            self._vectors.move_to_end(fingerprint)
            return vector.copy()

    def put(self, fingerprint: str, vector: np.ndarray) -> None:
        """Insert (or refresh) a vector, evicting the LRU entry on overflow.

        Raises:
            ValueError: if the vector's shape does not match the extractor's
                dimension (guards warm-starts against a changed schema).
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"expected a vector of shape ({self.dimension},), "
                f"got {vector.shape}"
            )
        with self._lock:
            self._store(fingerprint, vector.copy())

    def _store(self, fingerprint: str, vector: np.ndarray) -> None:
        """Insert under the lock; the caller owns ``vector``."""
        self._vectors[fingerprint] = vector
        self._vectors.move_to_end(fingerprint)
        while len(self._vectors) > self.capacity:
            self._vectors.popitem(last=False)
            self._evictions += 1

    def _extract_block(self, pairs: Sequence[EntityPair], out: np.ndarray) -> None:
        """Fill ``out`` with the vectors of one block of ``pairs``."""
        fingerprints = [pair_fingerprint(pair) for pair in pairs]
        missing: dict[str, EntityPair] = {}
        missing_rows: list[int] = []
        with self._lock:
            for row, (pair, fingerprint) in enumerate(zip(pairs, fingerprints)):
                vector = self._vectors.get(fingerprint)
                if vector is not None:
                    self._vectors.move_to_end(fingerprint)
                    self._hits += 1
                    out[row] = vector
                else:
                    self._misses += 1
                    missing.setdefault(fingerprint, pair)
                    missing_rows.append(row)

        if missing:
            with self._compute_lock:
                computed = self.extractor.extract_matrix(list(missing.values()))
            by_fingerprint = dict(zip(missing, computed))
            with self._lock:
                for fingerprint, vector in by_fingerprint.items():
                    self._store(fingerprint, np.array(vector, dtype=float))
                for row in missing_rows:
                    out[row] = by_fingerprint[fingerprints[row]]

    def extract_matrix(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Return the ``(n, d)`` feature matrix of ``pairs``, memoized.

        Pairs already in the store (by content fingerprint) reuse their cached
        vector; the remaining distinct pairs are featurized in columnar
        ``extract_matrix`` calls on the wrapped extractor, at most
        ``extract_block_size`` pairs per call, so working memory stays
        bounded however long the input is.  Output rows are bit-identical to
        scalar per-pair extraction (extractor rows are independent, so block
        composition cannot change them).
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros((0, self.dimension), dtype=float)
        matrix = np.empty((len(pairs), self.dimension), dtype=float)
        block = self.extract_block_size
        if len(pairs) > block:
            with self._lock:
                self._chunked_extracts += 1
        for start in range(0, len(pairs), block):
            stop = min(start + block, len(pairs))
            self._extract_block(pairs[start:stop], matrix[start:stop])
        return matrix

    # -- accounting ----------------------------------------------------------

    def stats(self) -> FeatureStoreStats:
        """Return a point-in-time snapshot of the store's counters."""
        with self._lock:
            return FeatureStoreStats(
                size=len(self._vectors),
                capacity=self.capacity,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                chunked_extracts=self._chunked_extracts,
                planning=self.planner.stats().to_dict(),
            )

    def clear(self) -> None:
        """Drop every cached vector (counters kept)."""
        with self._lock:
            self._vectors.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"FeatureStore(extractor={self.name!r}, size={stats.size}, "
            f"capacity={stats.capacity}, hit_rate={stats.hit_rate:.2f})"
        )


def create_feature_store(
    variant: str,
    attributes: tuple[str, ...],
    capacity: int = DEFAULT_CAPACITY,
) -> FeatureStore:
    """Build a :class:`FeatureStore` over one of the paper's extractor variants."""
    from repro.features.factory import create_feature_extractor

    return FeatureStore(
        create_feature_extractor(variant, attributes), capacity=capacity
    )
