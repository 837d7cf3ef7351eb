"""MinHash-LSH blocking: near-linear candidate generation for large tables.

The inverted-index blockers in this package compare every pair of records that
co-occur in a posting list — fine at benchmark scale, but posting lists grow
with the table and the candidate set degrades toward quadratic on dirty data.
This module provides the classic sub-quadratic alternative:

* each record is reduced to a set of token shingles,
* the set is summarised by a MinHash signature under ``num_perm`` seeded
  permutations (multiply-shift hashing over 64-bit token hashes; two records'
  signatures agree on a permutation with probability equal to their Jaccard
  similarity),
* signatures are split into ``bands`` bands of ``num_perm / bands`` rows, and
  records colliding in at least one banded bucket become candidate pairs.

Everything is deterministic for a fixed ``seed``: token hashes are keyed
blake2b digests (not Python's salted ``hash``), permutations are drawn from a
seeded generator, and candidate emission order is stable — so blocking results
are byte-stable across processes.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.blocking.base import Blocker, BlockingResult
from repro.data.schema import CandidateSet, Record, Table
from repro.text.similarity import tokenize_value

#: Tokens shorter than this are ignored (stop-word-ish noise).
MIN_TOKEN_LENGTH = 2

#: Signature value of a record with no tokens (never collides: see block()).
EMPTY_SIGNATURE = np.uint64(np.iinfo(np.uint64).max)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser: a cheap, well-mixed 64-bit hash."""
    z = values.astype(np.uint64, copy=True)
    z += _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_tokens(tokens: Iterable[str]) -> np.ndarray:
    """Deterministic 64-bit hashes of string tokens (blake2b, not ``hash()``).

    Python's builtin ``hash`` is salted per process; blocking must be
    byte-stable across processes, so tokens are digested explicitly.
    """
    return np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            for token in tokens
        ),
        dtype=np.uint64,
    )


class MinHashSigner:
    """Seeded MinHash permutations over token-hash sets.

    Each "permutation" is a multiply-shift universal hash over uint64 token
    hashes (odd multiplier, additive offset, natural 2^64 wraparound); the
    signature entry for a permutation is the minimum hashed token value.

    Args:
        num_perm: number of permutations (signature length).
        seed: RNG seed the permutation parameters are drawn from.
    """

    def __init__(self, num_perm: int = 64, seed: int = 0) -> None:
        if num_perm < 1:
            raise ValueError(f"num_perm must be >= 1, got {num_perm}")
        self.num_perm = num_perm
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._multipliers = (
            rng.integers(1, 2**63, size=num_perm, dtype=np.uint64) | np.uint64(1)
        )
        self._offsets = rng.integers(0, 2**63, size=num_perm, dtype=np.uint64)

    def signatures_of_sets(
        self, token_sets: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Signatures of ragged token-hash sets (the text-blocking case).

        Rows whose token set is empty are filled with :data:`EMPTY_SIGNATURE`;
        callers must exclude those rows from bucketing (two token-less records
        are not evidence of a match).
        """
        out = np.full((len(token_sets), self.num_perm), EMPTY_SIGNATURE)
        lengths = np.array([len(tokens) for tokens in token_sets], dtype=np.int64)
        nonempty = lengths > 0
        if not bool(np.any(nonempty)):
            return out
        flat = np.concatenate(
            [np.asarray(tokens, dtype=np.uint64) for tokens in token_sets if len(tokens)]
        )
        starts = np.zeros(int(np.count_nonzero(nonempty)), dtype=np.int64)
        np.cumsum(lengths[nonempty][:-1], out=starts[1:])
        for perm in range(self.num_perm):
            permuted = flat * self._multipliers[perm] + self._offsets[perm]
            out[nonempty, perm] = np.minimum.reduceat(permuted, starts)
        return out


def band_keys(signatures: np.ndarray, bands: int) -> np.ndarray:
    """Mix each signature into one uint64 bucket key per LSH band.

    The ``(n, num_perm)`` signature matrix is split into ``bands`` contiguous
    bands of ``num_perm / bands`` rows each; rows within a band are folded
    with a splitmix64 chain, so two records share a band key exactly when
    their signatures agree on every permutation of that band (up to 64-bit
    hash collisions).  Returns a ``(n, bands)`` uint64 key matrix.
    """
    if signatures.ndim != 2:
        raise ValueError(f"expected a 2-D signature matrix, got {signatures.shape}")
    num_perm = signatures.shape[1]
    if bands < 1 or num_perm % bands != 0:
        raise ValueError(
            f"bands must divide num_perm: bands={bands}, num_perm={num_perm}"
        )
    rows = num_perm // bands
    view = signatures.reshape(signatures.shape[0], bands, rows)
    keys = splitmix64(view[:, :, 0])
    for row in range(1, rows):
        keys = splitmix64(keys ^ (view[:, :, row] + _GOLDEN))
    return keys


class MinHashLSHBlocker(Blocker):
    """Banded MinHash-LSH blocker over token shingles.

    Unlike :class:`~repro.blocking.overlap.TokenOverlapBlocker`, candidate
    generation never walks full posting lists: records only pair up when
    their banded signatures collide, which keeps the expected candidate count
    near-linear in the table size.  Recall is probabilistic — a pair sharing
    Jaccard similarity ``J`` collides in at least one band with probability
    ``1 - (1 - J^rows)^bands`` — and tunable via ``num_perm`` / ``bands``.

    Args:
        attributes: attributes whose tokens are shingled; ``None`` means all
            attributes of table A's schema.
        shingle_size: width of word shingles per attribute (1 = single
            tokens); records with fewer tokens contribute their whole token
            sequence as one shingle so short values still get signed.
        num_perm: MinHash permutations (must be divisible by ``bands``).
        bands: LSH bands; more bands = higher recall, more candidates.
        candidate_cap: per-left-record cap on emitted candidates; the
            strongest collisions (most shared bands) win, ties broken by
            right-record position for determinism.
        seed: seed of the signature permutations.
    """

    def __init__(
        self,
        attributes: tuple[str, ...] | None = None,
        shingle_size: int = 1,
        num_perm: int = 64,
        bands: int = 16,
        candidate_cap: int = 64,
        seed: int = 0,
    ) -> None:
        if shingle_size < 1:
            raise ValueError(f"shingle_size must be >= 1, got {shingle_size}")
        if bands < 1 or num_perm % bands != 0:
            raise ValueError(
                f"bands must divide num_perm: bands={bands}, num_perm={num_perm}"
            )
        if candidate_cap < 1:
            raise ValueError(f"candidate_cap must be >= 1, got {candidate_cap}")
        self.attributes = attributes
        self.shingle_size = shingle_size
        self.num_perm = num_perm
        self.bands = bands
        self.candidate_cap = candidate_cap
        self.seed = seed
        self._signer = MinHashSigner(num_perm=num_perm, seed=seed)

    def _record_shingles(
        self, record: Record, attributes: tuple[str, ...]
    ) -> set[str]:
        shingles: set[str] = set()
        for attribute in attributes:
            tokens = [
                token
                for token in tokenize_value(record.value(attribute))
                if len(token) >= MIN_TOKEN_LENGTH
            ]
            if not tokens:
                continue
            if len(tokens) < self.shingle_size:
                shingles.add(" ".join(tokens))
                continue
            for start in range(len(tokens) - self.shingle_size + 1):
                shingles.add(" ".join(tokens[start : start + self.shingle_size]))
        return shingles

    def _table_signatures(
        self, table: Table, attributes: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Banded bucket keys and an empty-record mask for one table."""
        # Token sets are keyed by *position* (see TokenOverlapBlocker): dirty
        # tables contain duplicate record ids with different contents.
        token_sets = [
            hash_tokens(sorted(self._record_shingles(record, attributes)))
            for record in table
        ]
        empty = np.array([len(tokens) == 0 for tokens in token_sets], dtype=bool)
        keys = band_keys(self._signer.signatures_of_sets(token_sets), self.bands)
        return keys, empty

    def block(self, table_a: Table, table_b: Table) -> BlockingResult:
        attributes = self.attributes or table_a.attributes
        keys_a, empty_a = self._table_signatures(table_a, attributes)
        keys_b, empty_b = self._table_signatures(table_b, attributes)

        # Count, per A record, in how many bands each B record collides.
        collision_counts: list[dict[int, int]] = [
            defaultdict(int) for _ in range(len(table_a))
        ]
        for band in range(self.bands):
            buckets: dict[int, list[int]] = defaultdict(list)
            for position_b in range(len(table_b)):
                if not empty_b[position_b]:
                    buckets[int(keys_b[position_b, band])].append(position_b)
            for position_a in range(len(table_a)):
                if empty_a[position_a]:
                    continue
                for position_b in buckets.get(int(keys_a[position_a, band]), ()):
                    collision_counts[position_a][position_b] += 1

        pairs = []
        pair_index = 0
        for position_a, counts in enumerate(collision_counts):
            selected = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            for position_b, _ in selected[: self.candidate_cap]:
                pairs.append(
                    self._make_pair(
                        table_a.records[position_a],
                        table_b.records[position_b],
                        pair_index,
                    )
                )
                pair_index += 1

        return BlockingResult(
            candidates=CandidateSet(tuple(pairs)),
            total_possible_pairs=len(table_a) * len(table_b),
        )
