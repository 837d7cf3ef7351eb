"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints the
resulting rows (the same rows/series the paper reports), while pytest-benchmark
records the wall-clock time of the underlying experiment run.

The default settings use heavily scaled-down datasets so that the whole harness
finishes in minutes.  Set ``REPRO_BENCH_SCALE=1.0`` and
``REPRO_BENCH_MAX_QUESTIONS=none`` to run at the paper's Table II scale
(slow — hours, exactly like the original evaluation).
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation.report import format_table
from repro.experiments.settings import ExperimentSettings

#: Default dataset scale for benchmarks (3% of Table II sizes).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))
_max_questions_raw = os.environ.get("REPRO_BENCH_MAX_QUESTIONS", "96")
BENCH_MAX_QUESTIONS = (
    None if _max_questions_raw.lower() in ("none", "0") else int(_max_questions_raw)
)


def default_bench_settings() -> ExperimentSettings:
    """Experiment settings shared by all benchmarks (also for standalone runs)."""
    return ExperimentSettings(
        scale=BENCH_SCALE,
        max_questions=BENCH_MAX_QUESTIONS,
        seeds=(1, 2),
    )


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Experiment settings shared by all benchmarks."""
    return default_bench_settings()


def print_rows(title: str, rows: list[dict[str, object]]) -> None:
    """Print a paper-style table below the benchmark output."""
    print(f"\n\n=== {title} ===")
    print(format_table(rows))
    print()


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (experiments are too heavy to repeat)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
