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
* :func:`build_lsh_neighbor_graph` — the *approximate* epsilon self-join for
  very large inputs: candidate pairs come from a banded MinHash-LSH index
  over quantized grid-cell tokens (reusing the
  :mod:`repro.blocking.minhash` primitives), exact distances are computed
  only on candidates, so every surviving edge is a true edge — the result is
  always a subgraph of the exact graph, with probabilistic recall.
* :class:`NeighborPlanner` — the policy object deciding, per self-join,
  between the exact sparse blocked path and the LSH approximate path (above
  ``approx_threshold``, where even the blocked exact join's
  ``O(n^2 / block)`` slab scans are too slow).

The planner is threaded through the
:class:`~repro.features.engine.FeatureStore`, the clustering-based batchers,
:class:`~repro.clustering.dbscan.DBSCAN` and the covering selector.  The
exact regime is golden-tested against a test-only dense-matrix oracle on
fixed seeds, and the LSH regime is property-tested to stay a subgraph of the
exact graph at a recall floor.
"""

from __future__ import annotations

import hashlib
import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import ContextManager

import numpy as np

from repro.blocking.minhash import MinHashSigner, band_keys, splitmix64
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

#: Self-joins above this many points route to the approximate LSH regime.
DEFAULT_APPROX_THRESHOLD = 100_000


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

    def transpose(self) -> "NeighborGraph":
        """The column-to-row view of this graph (e.g. demo -> questions)."""
        counts = np.bincount(self.indices, minlength=self.num_cols)
        indptr = np.zeros(self.num_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.indptr)
        )
        return NeighborGraph(
            indptr=indptr,
            indices=rows[order],
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


@dataclass(frozen=True)
class LSHConfig:
    """Knobs of the approximate LSH epsilon-join.

    The defaults target recall >= 0.95 on the benchmark workloads: with two
    half-offset grids per dimension, any within-radius pair shares at least
    one cell token per dimension, so its Jaccard similarity is at least 1/3;
    a band of ``rows = num_perm / bands = 2`` permutations collides with
    probability ``J^2``, and requiring at least
    ``min_band_collisions = 2`` of the 48 bands keeps worst-case retrieval
    at ``1 - (8/9)^48 - (48/9)(8/9)^47 ~ 0.975`` while discarding the long
    tail of pairs that collide in exactly one band — empirically ~90% of
    all candidates and almost none of the true edges (far pairs have small
    ``J``, so their expected collision count ``bands * J^2`` is far below
    2; near pairs sit far above it).

    Attributes:
        num_perm: MinHash permutations (must be divisible by ``bands``).
        bands: LSH bands; more bands = higher recall, more candidates.
        min_band_collisions: candidate pairs must collide in at least this
            many bands to be verified (1 keeps every collision).
        cell_factor: grid cell width as a multiple of the join radius
            (per-dimension guarantee needs >= 2.0; larger trades candidates
            for recall headroom).
        candidate_cap: per-record cap on verified candidates (lowest column
            indices win, deterministically); 0 disables the cap.  Bucket
            enumeration already bounds a record's candidates near
            ``2 * bucket_window * bands``, so the default cap is a safety
            valve against degenerate inputs, not a recall knob — caps far
            below the enumeration bound truncate true neighbours.
        max_bucket: LSH buckets larger than this are skipped — they
            correspond to degenerate clumps whose all-pairs expansion would
            be quadratic again.
        bucket_window: within a bucket, each member pairs with at most this
            many following members in the band's salted order; buckets up to
            ``bucket_window + 1`` members still emit all their pairs, and
            larger buckets rely on the per-band orders being independent so
            a pair truncated in one band is enumerated in another.
        identical_window: bucket window of the one-shot identical-signature
            pass.  Records with identical full signatures would collide in
            every band, so their pairs are enumerated exactly once (and
            bypass ``min_band_collisions``); a single pass can afford a much
            wider window than the per-band loop.
        verify_chunk: candidate pairs verified per exact-distance chunk.
        seed: seed of the MinHash permutations.
    """

    num_perm: int = 96
    bands: int = 48
    min_band_collisions: int = 2
    cell_factor: float = 2.0
    candidate_cap: int = 4096
    max_bucket: int = 4096
    bucket_window: int = 32
    identical_window: int = 128
    verify_chunk: int = 262_144
    seed: int = 0


#: Shared default LSH configuration.
DEFAULT_LSH_CONFIG = LSHConfig()


def _lsh_cell_tokens(
    features: np.ndarray, radius: float, metric: str, cell_factor: float
) -> np.ndarray:
    """Quantized grid-cell tokens: the LSH "shingles" of numeric vectors.

    Each dimension contributes two tokens, one per half-offset grid of cell
    width ``cell_factor * radius`` (cosine vectors are unit-normalised first
    and the width uses the chord radius ``sqrt(2 * radius)``).  With
    ``cell_factor >= 2`` a within-radius pair agrees on at least one of the
    two grids in every dimension, which lower-bounds its Jaccard similarity
    at 1/3 regardless of dimensionality.
    """
    points = features
    if metric == "cosine":
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        points = features / np.where(norms == 0.0, 1.0, norms)
        width = cell_factor * math.sqrt(max(2.0 * radius, 0.0))
    else:
        width = cell_factor * radius
    if not width > 0.0 or not math.isfinite(width):
        # Degenerate radius: any positive width groups coincident points.
        width = 1.0
    n, dims = points.shape
    salts = splitmix64(np.arange(2 * dims, dtype=np.uint64))
    tokens = np.empty((n, 2 * dims), dtype=np.uint64)
    for offset_grid in range(2):
        cells = np.floor(points / width + 0.5 * offset_grid).astype(np.int64)
        start = offset_grid * dims
        tokens[:, start : start + dims] = splitmix64(
            cells.astype(np.uint64) ^ salts[start : start + dims]
        )
    return tokens


def _bucket_pairs(
    members: np.ndarray, starts: np.ndarray, sizes: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """All (windowed) within-bucket pairs, vectorised across buckets.

    ``members`` concatenates the members of every eligible bucket (in the
    caller's per-band order); the element at local position ``i`` of a
    size-``s`` bucket pairs with the next ``min(s - 1 - i, window)``
    members, so every unordered pair is emitted at most once and buckets of
    up to ``window + 1`` members emit all their pairs.  The returned arrays
    hold member *values*, whose relative order follows the bucket order —
    callers canonicalise pairs themselves.
    """
    local = np.arange(len(members), dtype=np.int64) - np.repeat(starts, sizes)
    leads = np.minimum(np.repeat(sizes, sizes) - 1 - local, window)
    total = int(leads.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    position = np.arange(len(members), dtype=np.int64)
    first_right = np.repeat(position + 1, leads)
    run_starts = np.zeros(len(members), dtype=np.int64)
    np.cumsum(leads[:-1], out=run_starts[1:])
    within_run = np.arange(total, dtype=np.int64) - np.repeat(run_starts, leads)
    left = np.repeat(members, leads)
    right = members[first_right + within_run]
    return left, right


def _column_pairs(
    column: np.ndarray, tiebreak: np.ndarray, max_bucket: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed within-bucket pairs of one hash column.

    Groups equal values of ``column`` into buckets, orders members of each
    bucket by ``tiebreak``, skips buckets larger than ``max_bucket``, and
    enumerates windowed pairs via :func:`_bucket_pairs`.
    """
    n = len(column)
    order = np.lexsort((tiebreak, column))
    sorted_keys = column[order]
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    sizes = np.diff(np.concatenate((starts, np.array([n], dtype=np.int64))))
    eligible = (sizes >= 2) & (sizes <= max_bucket)
    if not bool(np.any(eligible)):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    kept_sizes = sizes[eligible]
    members = order[np.repeat(eligible, sizes)]
    kept_starts = np.zeros(len(kept_sizes), dtype=np.int64)
    np.cumsum(kept_sizes[:-1], out=kept_starts[1:])
    return _bucket_pairs(members, kept_starts, kept_sizes, window)


def build_lsh_neighbor_graph(
    features: np.ndarray,
    radius: float,
    metric: str = "euclidean",
    inclusive: bool = True,
    config: LSHConfig = DEFAULT_LSH_CONFIG,
) -> tuple[NeighborGraph, int]:
    """Approximate epsilon self-join via banded MinHash-LSH candidates.

    Candidate pairs are generated from a banded MinHash index over quantized
    grid-cell tokens and then *verified with exact distances* — so the
    resulting graph contains no false edges: it is a subgraph of
    :func:`build_neighbor_graph` on the same inputs, missing (with low
    probability) some true edges.  Peak memory is bounded by the candidate
    set, never by ``n^2``.

    One floating-point caveat: verification computes candidate distances
    with :func:`~repro.clustering.distance.elementwise_distances`, while the
    blocked join computes slabs via the norm-expansion matmul — two exact
    formulas that can disagree by one ulp.  A pair whose distance ties the
    radius *exactly* may therefore round into this graph and out of the
    blocked one (or vice versa); subgraph comparisons must treat such
    boundary ties as agreements.

    Returns the graph and the number of directed candidate pairs verified
    (the planner surfaces it as ``lsh_candidates``).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
    if config.bands < 1 or config.num_perm % config.bands != 0:
        raise ValueError(
            f"bands must divide num_perm: bands={config.bands}, "
            f"num_perm={config.num_perm}"
        )
    if config.min_band_collisions < 1:
        raise ValueError(
            f"min_band_collisions must be >= 1, got {config.min_band_collisions}"
        )
    if config.identical_window < 1:
        raise ValueError(
            f"identical_window must be >= 1, got {config.identical_window}"
        )
    n, dims = features.shape
    if n < 2 or dims == 0:
        # Too small (or dimensionless) for hashing to pay off; the exact
        # blocked join is already cheap and keeps the semantics exact.
        return (
            build_neighbor_graph(features, radius, metric=metric, inclusive=inclusive),
            0,
        )

    tokens = _lsh_cell_tokens(features, radius, metric, config.cell_factor)
    signer = MinHashSigner(num_perm=config.num_perm, seed=config.seed)
    keys = np.empty((n, config.bands), dtype=np.uint64)
    for start in range(0, n, 65536):
        stop = min(start + 65536, n)
        keys[start:stop] = band_keys(
            signer.signature_matrix(tokens[start:stop]), config.bands
        )
    del tokens

    if n >= 1 << 31:
        raise ValueError(f"LSH pair packing supports at most 2^31 - 1 rows, got {n}")
    band_salts = splitmix64(
        np.arange(config.bands + 1, dtype=np.uint64) + np.uint64(config.seed)
    )
    index = np.arange(n, dtype=np.uint64)

    # Records with identical full signatures (typically: the same grid cell)
    # collide in *every* band, so the band loop would re-emit each of their
    # pairs ``bands`` times — in clustered data that re-emission dominates
    # the raw candidate stream by an order of magnitude.  Fold the whole
    # signature into one key per record, enumerate identical-signature pairs
    # exactly once with a wider window (one pass can afford what ``bands``
    # passes cannot), and mask such pairs out of every band below.  These
    # pairs would trivially satisfy any ``min_band_collisions`` threshold,
    # so they bypass the multiplicity filter.
    full_key = keys[:, 0].astype(np.uint64, copy=True)
    for band in range(1, config.bands):
        np.bitwise_xor(full_key, keys[:, band], out=full_key)
        full_key = splitmix64(full_key)
    left, right = _column_pairs(
        full_key,
        splitmix64(index ^ band_salts[config.bands]),
        config.max_bucket,
        config.identical_window,
    )
    # The salted bucket order makes left/right arbitrary, so pairs are
    # canonicalised to (min, max) before packing both indices into one int64
    # key via shifts — integer division by ``n`` to unpack would dominate
    # the join at tens of millions of pairs.
    identical = (np.minimum(left, right) << np.int64(32)) | np.maximum(left, right)

    unordered: list[np.ndarray] = []
    for band in range(config.bands):
        # Bucket members are ordered by a per-band salted hash of their
        # index, NOT by the index itself: the enumeration window truncates
        # buckets larger than ``bucket_window + 1``, and a shared (e.g.
        # index-based) order would miss the same far-apart pairs in *every*
        # band.  Independent per-band orders give each truncated pair
        # ``bands`` chances to fall inside a window.
        left, right = _column_pairs(
            keys[:, band],
            splitmix64(index ^ band_salts[band]),
            config.max_bucket,
            config.bucket_window,
        )
        if not len(left):
            continue
        cross = full_key[left] != full_key[right]
        left, right = left[cross], right[cross]
        if len(left):
            unordered.append(
                (np.minimum(left, right) << np.int64(32)) | np.maximum(left, right)
            )
    del keys, full_key

    if not unordered and not len(identical):
        indptr = np.zeros(n + 1, dtype=np.int64)
        empty = NeighborGraph(
            indptr=indptr,
            indices=np.empty(0, dtype=np.int64),
            num_cols=n,
            radius=float(radius),
            metric=metric,
            inclusive=inclusive,
        )
        return empty, 0

    # Dedup with an explicit sort + adjacent-difference mask: ``np.unique``
    # routes large integer inputs through a hash table that is an order of
    # magnitude slower than sorting this many int64 keys in place.  The sort
    # also yields each pair's band-collision count (its run length), which
    # the ``min_band_collisions`` filter uses to drop the long tail of
    # single-collision candidates before the expensive verification gathers.
    if unordered:
        raw = np.concatenate(unordered)
        total_raw = len(raw)
        raw.sort()
        keep = np.empty(total_raw, dtype=bool)
        keep[0] = True
        np.not_equal(raw[1:], raw[:-1], out=keep[1:])
        # Each unique pair is one run in the sorted stream; its run length is
        # its band-collision count.  Gathering survivors through the run-start
        # indices (rather than materialising every unique key first) keeps the
        # only full-width temporaries to the sorted stream and its boolean
        # mask — allocation volume, not arithmetic, is what dominates at this
        # scale.
        run_starts = np.flatnonzero(keep)
        del keep
        if config.min_band_collisions > 1 and len(run_starts):
            collisions = np.empty(len(run_starts), dtype=np.int64)
            np.subtract(run_starts[1:], run_starts[:-1], out=collisions[:-1])
            collisions[-1] = total_raw - run_starts[-1]
            run_starts = run_starts[collisions >= config.min_band_collisions]
            del collisions
        cross_keys = raw[run_starts]
        del raw, run_starts
    else:
        cross_keys = np.empty(0, dtype=np.int64)
    del unordered
    # The two streams are disjoint by construction (the band loop masked out
    # every identical-signature pair), so a plain concatenation stays
    # duplicate-free.
    pair_keys = (
        np.concatenate((identical, cross_keys)) if len(identical) else cross_keys
    )
    del identical, cross_keys
    if not len(pair_keys):
        indptr = np.zeros(n + 1, dtype=np.int64)
        empty = NeighborGraph(
            indptr=indptr,
            indices=np.empty(0, dtype=np.int64),
            num_cols=n,
            radius=float(radius),
            metric=metric,
            inclusive=inclusive,
        )
        return empty, 0
    low = np.int64(0xFFFFFFFF)
    lo = pair_keys >> np.int64(32)
    hi = pair_keys & low
    del pair_keys
    num_candidates = 2 * len(lo)

    capped = False
    if config.candidate_cap > 0:
        directed_counts = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        capped = int(directed_counts.max(initial=0)) > config.candidate_cap
        del directed_counts
    if capped:
        # Degenerate inputs only: enumerate directed candidates and keep each
        # row's first ``candidate_cap`` (lowest column index wins,
        # deterministically) before verification.  The masking passes over
        # the doubled candidate set are expensive, so the common
        # everything-under-cap case above skips them entirely.
        directed = np.concatenate(
            ((lo << np.int64(32)) | hi, (hi << np.int64(32)) | lo)
        )
        del lo, hi
        directed.sort()
        rows = directed >> np.int64(32)
        cols = directed & low
        del directed
        counts = np.bincount(rows, minlength=n)
        row_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=row_starts[1:])
        rank = np.arange(len(rows), dtype=np.int64) - np.repeat(row_starts, counts)
        keep = rank < config.candidate_cap
        rows, cols = rows[keep], cols[keep]
    else:
        # Verify each unordered pair once — distances are bitwise-symmetric
        # for every supported metric, so this halves verification (and the
        # big directed sort) without changing a single edge; survivors are
        # mirrored after the fact.
        rows, cols = lo, hi
        del lo, hi

    within: list[np.ndarray] = []
    for start in range(0, len(rows), config.verify_chunk):
        stop = min(start + config.verify_chunk, len(rows))
        distances = elementwise_distances(
            features[rows[start:stop]], features[cols[start:stop]], metric
        )
        within.append(distances <= radius if inclusive else distances < radius)
    keep = (
        np.concatenate(within) if within else np.empty(0, dtype=bool)
    )
    rows, cols = rows[keep], cols[keep]
    if not capped:
        directed = np.concatenate(
            ((rows << np.int64(32)) | cols, (cols << np.int64(32)) | rows)
        )
        directed.sort()
        rows = directed >> np.int64(32)
        cols = directed & low
        del directed
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    graph = NeighborGraph(
        indptr=indptr,
        indices=cols.astype(np.int64, copy=False),
        num_cols=n,
        radius=float(radius),
        metric=metric,
        inclusive=inclusive,
    )
    return graph, num_candidates


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
    """Counters of a :class:`NeighborPlanner`'s routing decisions."""

    sparse_graphs: int = 0
    lsh_graphs: int = 0
    cross_joins: int = 0
    sampled_radii: int = 0
    edges_built: int = 0
    lsh_candidates: int = 0
    lsh_edges: int = 0
    lsh_oracle_runs: int = 0
    lsh_recall_min: float | None = None

    def to_dict(self) -> dict[str, object]:
        """Plain-dict snapshot (JSON-serializable, for service ``/stats``).

        ``lsh_routes`` mirrors ``lsh_graphs`` under the routing-counter name
        the service dashboards use alongside ``repro_planner_route_total``.
        """
        return {
            "sparse_graphs": self.sparse_graphs,
            "lsh_graphs": self.lsh_graphs,
            "lsh_routes": self.lsh_graphs,
            "cross_joins": self.cross_joins,
            "sampled_radii": self.sampled_radii,
            "edges_built": self.edges_built,
            "lsh_candidates": self.lsh_candidates,
            "lsh_edges": self.lsh_edges,
            "lsh_oracle_runs": self.lsh_oracle_runs,
            "lsh_recall_min": self.lsh_recall_min,
        }


class NeighborPlanner:
    """Routing policy between exact sparse and approximate LSH batch planning.

    Self-joins build their epsilon-graph with blocked radius joins, so the
    ``(n, n)`` distance matrix is never materialised.  Above
    ``approx_threshold`` even the exact blocked join's full slab scans are
    too slow, and self-joins route to the approximate MinHash-LSH regime
    (:func:`build_lsh_neighbor_graph`) — candidate generation is hash-based,
    exact distances are computed only on candidates, so the graph is a
    subgraph of the exact one with probabilistic recall.  Cross joins stay
    exact in every regime (their cost is ``n * pool``, not ``n^2``).
    Percentile radii are exact up to :data:`EXACT_RADIUS_MAX_POINTS` points
    and sampled above (:func:`sample_percentile_radius`).

    Args:
        block_size: rows per slab in blocked joins.
        sample_size: pairwise distances sampled by the percentile estimator.
        seed: base seed of the sampling RNG (per-call seeds are derived from
            it and the call-site inputs; see :meth:`resolve_radius`).
        approx_threshold: self-joins strictly larger than this route to the
            LSH regime; ``0`` forces LSH everywhere (used by the forced-LSH
            golden tests), ``None`` disables the regime entirely.
        lsh: LSH knobs for the approximate regime.
        recall_oracle_max: when an LSH graph is built over at most this many
            points, the exact graph is also built and the edge recall
            recorded in the stats (``lsh_recall_min``) — an always-on
            quality oracle for benchmarks and smoke tests; 0 disables it.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = DEFAULT_SAMPLE_SEED,
        approx_threshold: int | None = DEFAULT_APPROX_THRESHOLD,
        lsh: LSHConfig = DEFAULT_LSH_CONFIG,
        recall_oracle_max: int = 0,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        if approx_threshold is not None and approx_threshold < 0:
            raise ValueError(
                f"approx_threshold must be >= 0 or None, got {approx_threshold}"
            )
        if recall_oracle_max < 0:
            raise ValueError(
                f"recall_oracle_max must be >= 0, got {recall_oracle_max}"
            )
        self.block_size = block_size
        self.sample_size = sample_size
        self.seed = seed
        self.approx_threshold = approx_threshold
        self.lsh = lsh
        self.recall_oracle_max = recall_oracle_max
        #: Optional :class:`~repro.observability.tracing.Tracer` emitting
        #: ``planner:*`` spans.  An attribute (not a constructor argument) so
        #: the clustering layer never imports the observability package; the
        #: resolver and pipeline stages bind it from their context.
        self.tracer = None
        self._stats = PlannerStats()
        self._lock = threading.Lock()

    # -- routing -------------------------------------------------------------

    def use_lsh(self, num_points: int) -> bool:
        """Whether a self-join over ``num_points`` points routes to LSH."""
        return self.approx_threshold is not None and num_points > self.approx_threshold

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
        """Epsilon self-join graph: exact sparse or approximate LSH."""
        features = np.asarray(features, dtype=float)
        n = features.shape[0]
        if self.use_lsh(n):
            with self._span("planner:graph", regime="lsh", points=n) as scope:
                graph, candidates = build_lsh_neighbor_graph(
                    features, radius, metric=metric, inclusive=inclusive,
                    config=self.lsh,
                )
                if scope is not None:
                    scope.set_attribute("edges", graph.num_edges)
                    scope.set_attribute("candidates", candidates)
            recall: float | None = None
            if 0 < n <= self.recall_oracle_max:
                exact = build_neighbor_graph(
                    features, radius, metric=metric, inclusive=inclusive,
                    block_size=self.block_size,
                )
                # LSH edges are exact-verified, hence a subset of the exact
                # edges — the edge-count ratio *is* the recall.  Clamped:
                # pairs whose distance ties the radius exactly can round
                # into the LSH graph but out of the blocked one (one-ulp
                # arithmetic difference, see build_lsh_neighbor_graph).
                recall = (
                    1.0
                    if exact.num_edges == 0
                    else min(1.0, graph.num_edges / exact.num_edges)
                )
            with self._lock:
                self._stats.lsh_graphs += 1
                self._stats.lsh_candidates += candidates
                self._stats.lsh_edges += graph.num_edges
                self._stats.edges_built += graph.num_edges
                if recall is not None:
                    self._stats.lsh_oracle_runs += 1
                    previous = self._stats.lsh_recall_min
                    self._stats.lsh_recall_min = (
                        recall if previous is None else min(previous, recall)
                    )
            return graph
        with self._span("planner:graph", regime="sparse", points=n) as scope:
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

        Cross joins stay exact in every regime: their cost is linear in
        ``rows * cols`` (questions x pool), never quadratic in the corpus.
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
        """A point-in-time copy of the routing counters."""
        with self._lock:
            return replace(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborPlanner(approx_threshold={self.approx_threshold}, "
            f"block_size={self.block_size}, sample_size={self.sample_size})"
        )


#: Module-level default planner used when no caller supplies one.
_DEFAULT_PLANNER = NeighborPlanner()


def default_planner() -> NeighborPlanner:
    """The process-wide default :class:`NeighborPlanner`."""
    return _DEFAULT_PLANNER
