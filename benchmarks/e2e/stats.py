"""Order statistics of the end-to-end benchmark.

Every timing is reported as a median plus the highest percentile the sample
supports: the highest of :data:`TAIL_CANDIDATES` with at least
:data:`MIN_BEYOND` samples ranked above it.  Percentiles are nearest-rank, so
a reported value is always one that was measured.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, highest first.  Nothing above p90:
#: on a 2-vCPU machine whose cores other tenants share, a higher percentile
#: counts scheduler stalls, not the program — over ten seeds serve_hot's p99
#: spread 63% where its p50 spread 10%.  A sample too small for any of them
#: (batch_suite's 3 rounds) reports its maximum.
TAIL_CANDIDATES = (90.0, 75.0, 50.0)

#: Samples that must rank above a percentile for the sample to support it.
MIN_BEYOND = 10


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` in a sample of ``n``.

    Computed in hundredths of a percent with integers, so ``q = 99`` of
    ``n = 1800`` is rank 1782, not 1783 through a float rounding up.
    """
    if n < 1:
        raise ValueError("empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return max(1, -(-round(q * 100) * n // 10_000))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an unsorted sample."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Number of samples ranked strictly above percentile ``q``."""
    return n - nearest_rank(n, q)


def tail_percentile(
    n: int,
    candidates: Sequence[float] = TAIL_CANDIDATES,
    min_beyond: int = MIN_BEYOND,
) -> float:
    """The highest candidate percentile a sample of ``n`` supports.

    A percentile is supported when at least ``min_beyond`` samples rank above
    it.  A sample too small to support any candidate reports its maximum
    (100).
    """
    for q in sorted(candidates, reverse=True):
        if n >= 1 and samples_beyond(n, q) >= min_beyond:
            return q
    return 100.0


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are those of :func:`statistics.quantiles` with ``n=4`` (its
    default exclusive method).
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def f1_percent(gold: Sequence[int], predicted: Sequence[int]) -> float:
    """F1 (0-100) of the match class (label 1), counted independently of
    the program's own evaluation code."""
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold labels for {len(predicted)} predictions")
    tp = sum(1 for g, p in zip(gold, predicted) if g == 1 and p == 1)
    fp = sum(1 for g, p in zip(gold, predicted) if g != 1 and p == 1)
    fn = sum(1 for g, p in zip(gold, predicted) if g == 1 and p != 1)
    return 200.0 * tp / (2 * tp + fp + fn) if tp else 0.0
