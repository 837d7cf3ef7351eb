"""The machine's speed right now, from a fixed pure-Python reference.

The benchmark's machine shares its cores with other tenants, and how fast it
runs Python swings by up to 1.8x from one second to the next, as other
tenants come and go.  No run is long enough to average that out, so the
benchmark times :func:`reference` — interpreter work that never changes —
between the steps it measures, where the program is idle, and reports a
step's time in *reference seconds*: the time it would have taken on a
machine that runs the reference in :data:`NOMINAL_S`::

    reference seconds = wall seconds * NOMINAL_S / reference time around it

A step that ran 30% slower because the machine did reads the same; a step
that ran 30% slower because the program did still reads 30% slower, since the
reference runs no program code.  The reference is timed on the CPU the
program runs on: each program process is pinned to one CPU, and the load
generator to another.

Only CPU time is scaled.  A step that spent part of its wall time waiting —
on the simulated model's sleep or a flush deadline — keeps that part as it
was (:func:`step_scale`): waiting takes as long on a slow machine as on a
fast one.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: Seconds :func:`reference` takes on the reference machine.  Set near what
#: it took on the machine the benchmark was built on when that machine ran
#: fast, so reference seconds read close to wall seconds there.
NOMINAL_S = 0.006

_WORDS = tuple(f"w{index}x{index * 7 % 13}y{index % 31}" for index in range(1500))


def reference() -> float:
    """Seconds one pass of the reference work takes now.

    Three kinds of interpreter work, a few milliseconds in all: integer
    arithmetic, dictionary updates keyed by fresh strings, and splitting,
    sorting and joining strings.  It allocates almost nothing that outlives
    it, so it leaves a program process's peak memory alone.
    """
    started = time.perf_counter()
    total = 0
    for index in range(40_000):
        total += index * index
    counts: dict[str, int] = {}
    for index in range(12_000):
        key = str(index % 997)
        counts[key] = counts.get(key, 0) + len(key)
    joined = [" ".join(sorted(set(word.split("x")))) for word in _WORDS]
    " ".join(joined).split()
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for CPU work done
    between two reference timings."""
    return NOMINAL_S / statistics.fmean((before, after))


def scaled(seconds: Sequence[float], references: Sequence[float]) -> list[float]:
    """Reference seconds of consecutive CPU-bound steps.

    ``references`` has one more entry than ``seconds``: step ``i`` ran
    between ``references[i]`` and ``references[i + 1]``.
    """
    if len(references) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} steps need {len(seconds) + 1} references")
    return [
        step * scale(references[index], references[index + 1])
        for index, step in enumerate(seconds)
    ]


def step_scale(seconds: float, work: Sequence[tuple[float, float]]) -> float:
    """Factor from wall seconds to reference seconds for a step that may
    have waited for part of its wall time.

    ``work`` holds ``(cpu_seconds, factor)`` for each process the step ran
    in: the process's CPU time during the step, and :func:`scale` on the CPU
    it is pinned to.  The CPU time, up to the step's wall time, is scaled by
    the CPU-time-weighted factor; the rest of the wall time was waiting and
    is not.  When the processes' CPU time exceeds the wall time — they ran
    in parallel — the whole step is CPU time.
    """
    cpu = sum(cpu_s for cpu_s, _ in work)
    if cpu <= 0.0 or seconds <= 0.0:
        return 1.0
    share = min(cpu / seconds, 1.0)
    factor = sum(cpu_s * factor for cpu_s, factor in work) / cpu
    return 1.0 - share + share * factor
