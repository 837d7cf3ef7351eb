"""Benchmark: scalar featurization vs. the columnar feature engine.

Three workload shapes, matching how featurization is actually paid for:

* **one-shot** — featurize a set of unique pairs once (the ``BatchER.run``
  shape): scalar per-pair ``extract`` loop vs. the columnar ``extract_matrix``
  (cold) vs. a warmed :class:`~repro.features.engine.FeatureStore` (every
  vector memoized).
* **streaming** — a request stream with hot-pair repetition drained in
  micro-batch flushes (the service shape): the pre-refactor baseline
  re-featurizes every flush from scratch with scalar ``extract`` calls, the
  engine featurizes through one shared content-addressed store.
* **cold pool** — the serve workloads' demonstration pool (the wa 0.6 train
  split, 3,687 pairs), which ``Resolver.warm()`` featurizes at start-up:
  BatchER-LR's scalar ``extract`` loop vs. one cold ``extract_matrix``, whose
  distinct value pairs run through the lane-parallel Levenshtein kernel.
  Unlike the other two shapes, this one times the kernel, not the caching.

Besides the optional pytest-benchmark timing, the run emits
``BENCH_features.json`` in the repository root with the headline speedups
and the absolute seconds behind them; the full-size report is tracked in git.
``--report PATH`` writes it elsewhere (the CI smoke run points it at a
scratch file so it never overwrites the tracked report).

Standalone::

    PYTHONPATH=src python benchmarks/bench_feature_engine.py
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from repro.data.registry import load_dataset
from repro.features import create_feature_extractor, create_feature_store
from repro.features.factory import EXTRACTOR_VARIANTS

#: Where the headline numbers land (repository root).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_features.json"

#: Unique pair contents in the streaming workload ("hot" catalog slice).
NUM_UNIQUE = 160

#: Flushes in the streaming workload (requests drawn with replacement).
NUM_FLUSHES = 12

#: Requests per flush.
FLUSH_SIZE = 96

#: The extractor whose streaming speedup is the report's headline number.
HEADLINE_VARIANT = "lr"

#: ``(dataset, scale, seed)`` of the serve workloads' demonstration pool.
POOL_DATASET = ("wa", 0.6, 0)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _scalar_matrix(extractor, pairs):
    return np.vstack([extractor.extract(pair) for pair in pairs])


def build_workload(seed: int = 11):
    """The benchmark workload: unique pairs + a hot streaming request trace."""
    dataset = load_dataset("beer", seed=7)
    unique = list(dataset.candidate_pairs)[:NUM_UNIQUE]
    rng = random.Random(seed)
    flushes = [
        [unique[rng.randrange(len(unique))] for _ in range(FLUSH_SIZE)]
        for _ in range(NUM_FLUSHES)
    ]
    return dataset, unique, flushes


def run_feature_engine_bench() -> dict[str, object]:
    """Measure every extractor variant and return the report dict."""
    dataset, unique, flushes = build_workload()
    variants: dict[str, dict[str, float]] = {}

    for variant in EXTRACTOR_VARIANTS:
        # One-shot: unique pairs, scalar loop vs cold columnar vs warm store.
        scalar_extractor = create_feature_extractor(variant, dataset.attributes)
        expected, scalar_once = _timed(lambda: _scalar_matrix(scalar_extractor, unique))
        columnar_extractor = create_feature_extractor(variant, dataset.attributes)
        columnar, columnar_cold = _timed(lambda: columnar_extractor.extract_matrix(unique))
        if not np.array_equal(columnar, expected):
            raise AssertionError(f"columnar path diverged from scalar oracle ({variant})")
        store = create_feature_store(variant, dataset.attributes)
        store.extract_matrix(unique)  # warm the store
        warmed, store_warm = _timed(lambda: store.extract_matrix(unique))
        if not np.array_equal(warmed, expected):
            raise AssertionError(f"warm store diverged from scalar oracle ({variant})")

        # Streaming: per-flush scalar re-featurization (the pre-refactor
        # shape: every consumer rebuilt its extractor and recomputed every
        # vector) vs one shared content-addressed store.
        def scalar_stream():
            for flush in flushes:
                extractor = create_feature_extractor(variant, dataset.attributes)
                _scalar_matrix(extractor, flush)

        def engine_stream():
            shared = create_feature_store(variant, dataset.attributes)
            for flush in flushes:
                shared.extract_matrix(flush)
            return shared

        _, scalar_streaming = _timed(scalar_stream)
        shared_store, engine_streaming = _timed(engine_stream)
        stats = shared_store.stats()

        variants[variant] = {
            "scalar_once_seconds": scalar_once,
            "columnar_cold_seconds": columnar_cold,
            "store_warm_seconds": store_warm,
            "warm_speedup": scalar_once / store_warm,
            "scalar_streaming_seconds": scalar_streaming,
            "engine_streaming_seconds": engine_streaming,
            "streaming_speedup": scalar_streaming / engine_streaming,
            "store_hit_rate": stats.hit_rate,
        }

    headline = variants[HEADLINE_VARIANT]
    return {
        "workload": {
            "dataset": "beer",
            "unique_pairs": len(unique),
            "flushes": NUM_FLUSHES,
            "requests": NUM_FLUSHES * FLUSH_SIZE,
        },
        "variants": variants,
        "headline_variant": HEADLINE_VARIANT,
        "columnar_speedup": headline["streaming_speedup"],
        "warm_store_speedup": headline["warm_speedup"],
        "cold_pool": run_cold_pool_arm(),
    }


def run_cold_pool_arm() -> dict[str, object]:
    """Featurize the serve pool cold: scalar ``extract`` loop vs ``extract_matrix``."""
    name, scale, seed = POOL_DATASET
    dataset = load_dataset(name, seed=seed, scale=scale)
    pool = list(dataset.splits.train)
    scalar_extractor = create_feature_extractor(HEADLINE_VARIANT, dataset.attributes)
    expected, scalar_seconds = _timed(lambda: _scalar_matrix(scalar_extractor, pool))
    columnar_extractor = create_feature_extractor(HEADLINE_VARIANT, dataset.attributes)
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

    report = run_once(benchmark, run_feature_engine_bench)
    write_report(report)
    print(f"\n\n=== feature engine ({REPORT_PATH.name}) ===")
    print(f"cold pool: {report['cold_pool']['speedup']:.1f}x")
    for variant, numbers in report["variants"].items():
        print(
            f"{variant}: streaming {numbers['streaming_speedup']:.1f}x, "
            f"warm store {numbers['warm_speedup']:.1f}x"
        )
    assert report["columnar_speedup"] >= 3.0
    assert report["warm_store_speedup"] >= 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Feature-engine speedup benchmark (emits BENCH_features.json)."
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail (exit 1) when the headline streaming speedup is below this",
    )
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args(argv)

    report = run_feature_engine_bench()
    write_report(report, args.report)
    print(json.dumps(report, indent=2))
    ok = report["columnar_speedup"] >= args.min_speedup
    if not ok:
        print(
            f"FAIL: headline streaming speedup {report['columnar_speedup']:.2f}x "
            f"< {args.min_speedup}x",
            file=sys.stderr,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
