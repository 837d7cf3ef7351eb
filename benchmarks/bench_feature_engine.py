"""Benchmark: scalar featurization vs. the columnar feature engine, cold.

The workload is the serve workloads' demonstration pool (the wa 0.6 train
split, 3,687 pairs), which ``Resolver.warm()`` featurizes at start-up:
BatchER-LR's scalar per-pair ``extract`` loop vs. one cold
``extract_matrix``, whose distinct value pairs run through the lane-parallel
Levenshtein kernel.  The process-wide similarity memo is emptied before
each timed arm, so "cold" means cold even when the arm runs again in a
long-lived process (the memo would otherwise answer every value pair of a
repeat).  The run asserts that both give the same matrix and reports both
timings; it sets no speedup floor, since a ratio of two
sub-second timings says more about machine load than about the engine.
The caching paths (warm store, streaming flushes) are checked by the tier-1
feature-engine tests, not here.

Besides the optional pytest-benchmark timing, the run emits
``BENCH_features.json`` in the repository root with the absolute seconds and
their ratio; the full-size report is tracked in git.  ``--report PATH``
writes it elsewhere (the CI smoke run points it at a scratch file so it
never overwrites the tracked report).

Standalone::

    PYTHONPATH=src python benchmarks/bench_feature_engine.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.data.registry import load_dataset
from repro.features import create_feature_extractor
from repro.text.similarity import clear_similarity_memo

#: Where the headline numbers land (repository root).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_features.json"

#: The extractor whose cold featurization is timed.
HEADLINE_VARIANT = "lr"

#: ``(dataset, scale, seed)`` of the serve workloads' demonstration pool.
POOL_DATASET = ("wa", 0.6, 0)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run_cold_pool_arm() -> dict[str, object]:
    """Featurize the serve pool cold: scalar ``extract`` loop vs ``extract_matrix``."""
    name, scale, seed = POOL_DATASET
    dataset = load_dataset(name, seed=seed, scale=scale)
    pool = list(dataset.splits.train)
    scalar_extractor = create_feature_extractor(HEADLINE_VARIANT, dataset.attributes)
    clear_similarity_memo()
    expected, scalar_seconds = _timed(
        lambda: np.vstack([scalar_extractor.extract(pair) for pair in pool])
    )
    columnar_extractor = create_feature_extractor(HEADLINE_VARIANT, dataset.attributes)
    clear_similarity_memo()
    columnar, columnar_seconds = _timed(lambda: columnar_extractor.extract_matrix(pool))
    if not np.array_equal(columnar, expected):
        raise AssertionError("cold-pool extract_matrix diverged from scalar oracle")
    return {
        "dataset": name,
        "scale": scale,
        "pairs": len(pool),
        "variant": HEADLINE_VARIANT,
        "scalar_seconds": scalar_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": scalar_seconds / columnar_seconds,
    }


def write_report(report: dict[str, object], path: Path = REPORT_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def test_feature_engine_speedup(benchmark):
    from conftest import run_once

    report = {"cold_pool": run_once(benchmark, run_cold_pool_arm)}
    write_report(report)
    cold = report["cold_pool"]
    print(f"\n\n=== feature engine ({REPORT_PATH.name}) ===")
    print(
        f"cold pool: {cold['scalar_seconds']:.3f}s scalar, "
        f"{cold['columnar_seconds']:.3f}s extract_matrix"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-pool featurization benchmark (emits BENCH_features.json)."
    )
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args(argv)

    report = {"cold_pool": run_cold_pool_arm()}
    write_report(report, args.report)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
