"""Sparse epsilon-neighbor graphs: batch planning past the dense O(n^2) wall.

Batch planning — DBSCAN clustering of question feature vectors (paper Section
III) and covering-based demonstration selection (Sections IV-D/V) — only ever
asks two questions of the pairwise geometry:

* *which points lie within a radius of each point* (the DBSCAN epsilon
  neighbourhood, the covering radius ``t``), and
* *what is a percentile of the pairwise distance distribution* (the automatic
  ``eps`` / threshold rules).

Neither needs the dense ``(n, n)`` distance matrix that
:func:`~repro.clustering.distance.pairwise_distances` materialises (~80 GB of
float64 at n = 100k).  This module answers both questions with bounded memory:

* :class:`NeighborGraph` — a CSR-style epsilon-neighbor graph: for every row
  point, the column points within ``radius``, stored as two flat index arrays.
* :func:`build_neighbor_graph` / :func:`build_cross_neighbor_graph` — blocked
  radius joins: distances are computed in fixed-size row blocks (peak memory
  ``O(block_size * n)``) and only the edges within the radius are kept.
* :func:`sample_percentile_radius` — percentile radii: exact over every
  pairwise distance up to :data:`EXACT_RADIUS_MAX_POINTS` points, from a
  seeded sample of pairwise distances above.
* :class:`NeighborPlanner` — the planning entry point: self-joins and cross
  joins are always the exact blocked joins above, and it resolves
  percentile radii and counts what it built.

The planner is threaded through the
:class:`~repro.features.engine.FeatureStore`, the clustering-based batchers,
:class:`~repro.clustering.dbscan.DBSCAN` and the covering selector.  Its
graphs are golden-tested against a test-only dense-matrix oracle on fixed
seeds.  Self-join cost grows as ``n^2 / block_size`` slab scans, so planning
is sized for the benchmark scale (thousands of questions), not for millions.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import ContextManager

import numpy as np

from repro.clustering.distance import (
    cross_distances,
    elementwise_distances,
    pairwise_distances,
)

#: Rows per block in blocked radius joins (peak slab = block_size * n floats).
DEFAULT_BLOCK_SIZE = 1024

#: Pairwise distances sampled when resolving a percentile radius sparsely.
DEFAULT_SAMPLE_SIZE = 262_144

#: Percentile radii over at most this many points are exact: every pairwise
#: distance is computed (one ``(n, n)`` matrix, 32 MB at the bound).
EXACT_RADIUS_MAX_POINTS = 2048

#: Seed of the radius-sampling RNG (fixed: planning must be reproducible).
DEFAULT_SAMPLE_SEED = 0


@dataclass(frozen=True)
class NeighborGraph:
    """A CSR-style epsilon-neighbor graph.

    Row ``i`` owns the column indices ``indices[indptr[i]:indptr[i + 1]]`` —
    the points within ``radius`` of point ``i`` under ``metric``.  For
    self-joins (:func:`build_neighbor_graph`) rows and columns index the same
    point set and self-edges are excluded; for cross joins
    (:func:`build_cross_neighbor_graph`) rows are the left set (questions) and
    columns the right set (pool demonstrations).

    Attributes:
        indptr: ``(num_rows + 1,)`` row pointer array.
        indices: ``(num_edges,)`` column indices, ascending within each row.
        num_cols: size of the column point set.
        radius: the join radius the graph was built with.
        metric: distance metric of the join.
        inclusive: whether the radius comparison was ``<=`` (DBSCAN's
            epsilon rule) or strict ``<`` (the covering rule).
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_cols: int
    radius: float
    metric: str
    inclusive: bool

    @property
    def num_rows(self) -> int:
        """Number of row points."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Total number of stored edges."""
        return int(self.indptr[-1])

    def neighbors(self, row: int) -> np.ndarray:
        """Column indices within the radius of ``row`` (a read-only view)."""
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def degrees(self) -> np.ndarray:
        """Per-row neighbour counts."""
        return np.diff(self.indptr)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The neighbour lists of ``rows``, concatenated in order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        # Output position k of row r reads indices[starts[r] + k - offsets[r]].
        offsets = np.cumsum(lengths) - lengths
        return self.indices[np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())]

    def transpose(self) -> "NeighborGraph":
        """The column-to-row view of this graph (e.g. demo -> questions)."""
        counts = np.bincount(self.indices, minlength=self.num_cols)
        indptr = np.zeros(self.num_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows = np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.indptr)
        )
        # Sorting (column, row) keys puts the edges column-major with
        # ascending rows, as a stable argsort of the columns would, but
        # several times faster.
        keys = np.sort(self.indices * self.num_rows + rows)
        return NeighborGraph(
            indptr=indptr,
            indices=keys % self.num_rows,
            num_cols=self.num_rows,
            radius=self.radius,
            metric=self.metric,
            inclusive=self.inclusive,
        )


def _assemble(
    blocks_indices: list[np.ndarray], counts: np.ndarray, num_cols: int,
    radius: float, metric: str, inclusive: bool,
) -> NeighborGraph:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = (
        np.concatenate(blocks_indices)
        if blocks_indices
        else np.empty(0, dtype=np.int64)
    )
    return NeighborGraph(
        indptr=indptr,
        indices=indices.astype(np.int64, copy=False),
        num_cols=num_cols,
        radius=float(radius),
        metric=metric,
        inclusive=inclusive,
    )


def _zero_row_mask(features: np.ndarray, metric: str) -> np.ndarray | None:
    """Mask of zero-norm rows, needed to patch cosine self-join slabs."""
    if metric != "cosine":
        return None
    mask = np.linalg.norm(features, axis=1) == 0.0
    return mask if bool(np.any(mask)) else None


def _self_join_slab(
    features: np.ndarray,
    start: int,
    stop: int,
    metric: str,
    zero_mask: np.ndarray | None,
) -> np.ndarray:
    """One ``(stop - start, n)`` distance slab of the self-join.

    Matches :func:`~repro.clustering.distance.pairwise_distances` semantics:
    :func:`~repro.clustering.distance.cross_distances` reports two zero
    vectors as maximally distant under the cosine metric, while a self-join
    treats them as coincident — the patch keeps blocked graphs equal to
    graphs thresholded from the full pairwise matrix.
    """
    slab = cross_distances(features[start:stop], features, metric=metric)
    if zero_mask is not None:
        block_zero = zero_mask[start:stop]
        if bool(np.any(block_zero)):
            slab[np.ix_(block_zero, zero_mask)] = 0.0
    return slab


def build_neighbor_graph(
    features: np.ndarray,
    radius: float,
    metric: str = "euclidean",
    inclusive: bool = True,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> NeighborGraph:
    """Blocked epsilon self-join: edges between points within ``radius``.

    Distances are computed one ``(block_size, n)`` slab at a time, so peak
    memory is bounded by the block size regardless of ``n``; the dense
    ``(n, n)`` matrix is never materialised.  Self-edges are excluded.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    n = features.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    blocks: list[np.ndarray] = []
    zero_mask = _zero_row_mask(features, metric)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        slab = _self_join_slab(features, start, stop, metric, zero_mask)
        mask = slab <= radius if inclusive else slab < radius
        # Exclude the diagonal of the self-join: the slab's local row r is
        # global point start + r.
        local = np.arange(stop - start)
        mask[local, local + start] = False
        rows, cols = np.nonzero(mask)
        counts[start:stop] = np.bincount(rows, minlength=stop - start)
        blocks.append(cols)
    return _assemble(blocks, counts, n, radius, metric, inclusive)


def build_cross_neighbor_graph(
    left: np.ndarray,
    right: np.ndarray,
    radius: float,
    metric: str = "euclidean",
    inclusive: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
    return_nearest: bool = False,
) -> tuple[NeighborGraph, np.ndarray | None]:
    """Blocked radius join between two point sets (questions -> pool).

    Returns the left-to-right :class:`NeighborGraph` and, when
    ``return_nearest`` is set, the per-left-row index of the nearest right
    point (``np.argmin`` semantics: first column on exact ties) computed from
    the same slabs — the covering selector's fallback rule needs it and this
    avoids a second pass over the distances.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.ndim != 2 or right.ndim != 2:
        raise ValueError("both inputs must be 2-D matrices")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if right.shape[0] == 0:
        raise ValueError("cannot radius-join against an empty right point set")
    n = left.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    blocks: list[np.ndarray] = []
    nearest = np.zeros(n, dtype=np.int64) if return_nearest else None
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        slab = cross_distances(left[start:stop], right, metric=metric)
        mask = slab <= radius if inclusive else slab < radius
        rows, cols = np.nonzero(mask)
        counts[start:stop] = np.bincount(rows, minlength=stop - start)
        blocks.append(cols)
        if nearest is not None:
            nearest[start:stop] = np.argmin(slab, axis=1)
    graph = _assemble(blocks, counts, right.shape[0], radius, metric, inclusive)
    return graph, nearest


def dense_percentile_radius(distances: np.ndarray, percentile: float) -> float:
    """The percentile-radius rule over a full pairwise distance matrix.

    Takes the given percentile of the *positive off-diagonal* entries,
    falling back to 1.0 when every off-diagonal distance is zero (all points
    coincide).  This is the rule behind DBSCAN's automatic ``eps`` and the
    covering threshold ``t``; :func:`sample_percentile_radius` applies it
    directly in its exact regime.
    """
    off_diagonal = distances[~np.eye(distances.shape[0], dtype=bool)]
    positive = off_diagonal[off_diagonal > 0.0]
    if positive.size == 0:
        return 1.0
    return float(np.percentile(positive, percentile))


def _radius_is_exact(num_points: int, sample_size: int) -> bool:
    """Whether a percentile radius over ``num_points`` points is exact."""
    return (
        num_points <= EXACT_RADIUS_MAX_POINTS
        or num_points * (num_points - 1) <= sample_size
    )


def sample_percentile_radius(
    features: np.ndarray,
    percentile: float,
    metric: str = "euclidean",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SAMPLE_SEED,
    chunk_size: int = 8192,
) -> float:
    """Percentile of the pairwise distance distribution (exact or sampled).

    The radius rules (:class:`~repro.clustering.dbscan.DBSCAN`'s automatic
    ``eps``, the covering threshold ``t``) take a percentile of all positive
    off-diagonal distances (:func:`dense_percentile_radius`):

    * **exact regime** — up to :data:`EXACT_RADIUS_MAX_POINTS` points, or
      while the full off-diagonal population ``n * (n - 1)`` fits in
      ``sample_size``, every pairwise distance is computed and the rule is
      applied to all of them.
    * **sampled regime** — otherwise, ``sample_size`` ordered pairs
      ``(i, j), i != j`` are drawn uniformly with a seeded RNG and only those
      distances are computed (in chunks, memory-bounded).  Deterministic
      given the seed.

    Returns 1.0 when there are fewer than two points or every considered
    distance is zero.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must be in (0, 100)")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    n = features.shape[0]
    if n < 2:
        return 1.0
    if _radius_is_exact(n, sample_size):
        # Exact regime: the percentile is taken over every off-diagonal
        # distance, computed with the pairwise_distances kernel — BLAS
        # results are shape-dependent in the last ulp, and this kernel fixes
        # the radius bits.  Memory stays bounded by the larger of
        # EXACT_RADIUS_MAX_POINTS^2 floats and the sample budget.
        return dense_percentile_radius(
            pairwise_distances(features, metric=metric), percentile
        )
    positives: list[np.ndarray] = []
    rng = np.random.default_rng(seed)
    left_index = rng.integers(0, n, size=sample_size)
    offset = rng.integers(1, n, size=sample_size)
    right_index = (left_index + offset) % n
    for start in range(0, sample_size, chunk_size):
        stop = min(start + chunk_size, sample_size)
        distances = elementwise_distances(
            features[left_index[start:stop]],
            features[right_index[start:stop]],
            metric,
        )
        positives.append(distances[distances > 0.0])
    sampled = np.concatenate(positives)
    if sampled.size == 0:
        return 1.0
    return float(np.percentile(sampled, percentile))


@dataclass
class PlannerStats:
    """Counters of what a :class:`NeighborPlanner` has built."""

    sparse_graphs: int = 0
    cross_joins: int = 0
    sampled_radii: int = 0
    edges_built: int = 0

    def to_dict(self) -> dict[str, object]:
        """Plain-dict snapshot (JSON-serializable, for service ``/stats``)."""
        return asdict(self)


class NeighborPlanner:
    """Batch planning over feature vectors without a dense distance matrix.

    Self-joins build their epsilon-graph with blocked radius joins
    (:func:`build_neighbor_graph`), so the ``(n, n)`` distance matrix is never
    materialised; cross joins (questions x pool) use
    :func:`build_cross_neighbor_graph`.  Both are exact.  Percentile radii are
    exact up to :data:`EXACT_RADIUS_MAX_POINTS` points and sampled above
    (:func:`sample_percentile_radius`).

    Args:
        block_size: rows per slab in blocked joins.
        sample_size: pairwise distances sampled by the percentile estimator.
        seed: base seed of the sampling RNG (per-call seeds are derived from
            it and the call-site inputs; see :meth:`resolve_radius`).
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = DEFAULT_SAMPLE_SEED,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self.block_size = block_size
        self.sample_size = sample_size
        self.seed = seed
        #: Optional :class:`~repro.observability.tracing.Tracer` emitting
        #: ``planner:*`` spans.  An attribute (not a constructor argument) so
        #: the clustering layer never imports the observability package; the
        #: resolver and pipeline stages bind it from their context.
        self.tracer = None
        self._stats = PlannerStats()
        self._lock = threading.Lock()

    def _span(self, name: str, **attributes: object) -> ContextManager:
        tracer = self.tracer
        if tracer is None or not getattr(tracer, "enabled", False):
            return nullcontext()
        return tracer.span(name, **attributes)

    # -- percentile radii ----------------------------------------------------

    def _sample_seed(self, features: np.ndarray, percentile: float, metric: str) -> int:
        """Per-call-site seed of the sampled-percentile RNG stream.

        Derived from the planner's base seed and the call inputs (feature
        bytes, percentile, metric), so repeated radius resolutions on the
        same inputs draw the *same* sample regardless of how many other
        resolutions happened in between, in this process or any other —
        radii are byte-stable per call site, not per call order.
        """
        digest = hashlib.blake2b(digest_size=8)
        digest.update(np.ascontiguousarray(features).tobytes())
        digest.update(f"|{percentile!r}|{metric}|{self.seed}".encode("utf-8"))
        return int.from_bytes(digest.digest(), "little")

    def resolve_radius(
        self, features: np.ndarray, percentile: float, metric: str = "euclidean"
    ) -> float:
        """Percentile radius over the pairwise distances of ``features``.

        Exact (every positive off-diagonal distance) up to
        :data:`EXACT_RADIUS_MAX_POINTS` points; above, a seeded sample via
        :func:`sample_percentile_radius`, with the sample seed derived per
        call site (:meth:`_sample_seed`) so the resolved radius is a pure
        function of the inputs and the planner's base seed.
        """
        features = np.asarray(features, dtype=float)
        n = features.shape[0]
        if n < 2:
            return 1.0
        seed = self.seed
        if not _radius_is_exact(n, self.sample_size):
            seed = self._sample_seed(features, percentile, metric)
            with self._lock:
                self._stats.sampled_radii += 1
        with self._span("planner:radius", points=n, percentile=percentile):
            return sample_percentile_radius(
                features,
                percentile,
                metric=metric,
                sample_size=self.sample_size,
                seed=seed,
            )

    # -- graphs --------------------------------------------------------------

    def graph(
        self,
        features: np.ndarray,
        radius: float,
        metric: str = "euclidean",
        inclusive: bool = True,
    ) -> NeighborGraph:
        """Exact epsilon self-join graph (blocked; never an ``(n, n)`` matrix)."""
        n = np.asarray(features).shape[0]
        with self._span("planner:graph", points=n) as scope:
            graph = build_neighbor_graph(
                features, radius, metric=metric, inclusive=inclusive,
                block_size=self.block_size,
            )
            if scope is not None:
                scope.set_attribute("edges", graph.num_edges)
        with self._lock:
            self._stats.sparse_graphs += 1
            self._stats.edges_built += graph.num_edges
        return graph

    def cross_graph(
        self,
        left: np.ndarray,
        right: np.ndarray,
        radius: float,
        metric: str = "euclidean",
        inclusive: bool = False,
        return_nearest: bool = False,
    ) -> tuple[NeighborGraph, np.ndarray | None]:
        """Blocked radius join between two point sets (always memory-bounded).

        Its cost is linear in ``rows * cols`` (questions x pool), never
        quadratic in the corpus.
        """
        with self._span(
            "planner:cross_join", rows=np.asarray(left).shape[0],
            cols=np.asarray(right).shape[0],
        ) as scope:
            graph, nearest = build_cross_neighbor_graph(
                left, right, radius, metric=metric, inclusive=inclusive,
                block_size=self.block_size, return_nearest=return_nearest,
            )
            if scope is not None:
                scope.set_attribute("edges", graph.num_edges)
        with self._lock:
            self._stats.cross_joins += 1
            self._stats.edges_built += graph.num_edges
        return graph, nearest

    # -- accounting ----------------------------------------------------------

    def stats(self) -> PlannerStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return replace(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborPlanner(block_size={self.block_size}, "
            f"sample_size={self.sample_size})"
        )


#: Module-level default planner used when no caller supplies one.
_DEFAULT_PLANNER = NeighborPlanner()


def default_planner() -> NeighborPlanner:
    """The process-wide default :class:`NeighborPlanner`."""
    return _DEFAULT_PLANNER
