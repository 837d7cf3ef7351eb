"""Benchmark: micro-batched serving vs. per-pair serial resolution.

The service's amortization claim, measured: a stream of concurrent requests
resolved through the micro-batching :class:`ResolutionService` must beat a
per-pair serial baseline (one LLM call per pair, the standard-prompting
serving shape) on both LLM calls and pairs/second, and a repeated request set
must be served from the result cache at zero new LLM calls.

Each arm is timed as the median of five passes, serial and batched
alternating, each on a fresh session.  Besides the optional pytest-benchmark
timing, the run emits ``BENCH_service.json`` in the repository root with the
headline numbers (batched-vs-serial pairs/sec and the cache-hit speedup); the
file is tracked.  ``--report PATH`` writes it elsewhere (``scripts/ci_check.sh``
points it at a scratch file, so its gates hold on every change without
overwriting the tracked report).

Standalone::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

import argparse
import json
import statistics
import time
from pathlib import Path

from repro.core.config import BatcherConfig
from repro.pipeline import Resolver
from repro.service import ResolutionService, ServiceConfig

from conftest import default_bench_settings, run_once

#: Where the headline numbers land (repository root).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


#: Workload size: a multiple of the service's max_batch_size, so the final
#: micro-batch is full and never waits out the flush deadline.
NUM_PAIRS = 80

#: Pairs per micro-batch flush (NUM_PAIRS / MAX_BATCH_SIZE exact flushes).
MAX_BATCH_SIZE = 16

#: Passes per arm, alternating serial and batched, each on a fresh session;
#: an arm's time is the median of its passes, so one slow pass of a
#: sub-second timing cannot decide the speedup gate.
PASSES = 5


def _questions(bench_settings):
    dataset = bench_settings.load("beer")
    questions = [pair.without_label() for pair in dataset.splits.test][:NUM_PAIRS]
    return dataset, questions


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _serial_pass(dataset, config, questions):
    """Serial per-pair baseline: standard prompting (paper Figure 1a) — one
    LLM call per pair, each prompt carrying the question plus its own K
    selected demonstrations.  This is the token load batch prompting
    amortizes."""
    resolver = Resolver.from_dataset(dataset, config.with_overrides(selection="topk-question"))
    resolver.warm()
    resolutions, seconds = _timed(
        lambda: list(resolver.resolve_iter(iter(questions), chunk_size=1))
    )
    return {"pairs": len(resolutions), "seconds": seconds, "llm_calls": resolver.usage.num_calls}


def _batched_pass(dataset, config, questions):
    """Micro-batched service: the whole stream submitted up front (the
    deterministic serving shape), then drained by the consumer; then the
    identical request set again, served by the result cache.  The session is
    warmed before timing, matching the warmed serial baseline."""
    service = ResolutionService.from_dataset(
        dataset,
        ServiceConfig(batcher=config, max_batch_size=MAX_BATCH_SIZE, max_wait_seconds=0.05),
    )
    service.resolver.warm()
    futures = [service.submit(pair) for pair in questions]

    def drain():
        service.start()
        return [future.result(timeout=120.0) for future in futures]

    try:
        batched, seconds = _timed(drain)
        calls_before_repeat = service.stats().llm_calls
        repeat, cache_seconds = _timed(lambda: service.resolve_many(questions))
        stats = service.stats()
    finally:
        service.stop()
    return {
        "pairs": len(batched),
        "seconds": seconds,
        "llm_calls": calls_before_repeat,
        "repeat_pairs": len(repeat),
        "cache_seconds": cache_seconds,
        "new_llm_calls": stats.llm_calls - calls_before_repeat,
        "cache_hit_rate": stats.cache_hit_rate,
    }


def run_service_bench(bench_settings):
    dataset, questions = _questions(bench_settings)
    config = BatcherConfig(seed=1)
    # Alternate the arms so a slow spell of the machine hits both, and time
    # each as the median of its passes.
    serial, batched = [], []
    for _ in range(PASSES):
        serial.append(_serial_pass(dataset, config, questions))
        batched.append(_batched_pass(dataset, config, questions))
    count = len(questions)
    assert all(run["pairs"] == count for run in serial)
    assert all(run["pairs"] == run["repeat_pairs"] == count for run in batched)
    serial_seconds = statistics.median(run["seconds"] for run in serial)
    batched_seconds = statistics.median(run["seconds"] for run in batched)
    cache_seconds = statistics.median(run["cache_seconds"] for run in batched)
    return {
        "dataset": dataset.name,
        "pairs": count,
        "passes": PASSES,
        "serial": {
            "seconds": serial_seconds,
            "pairs_per_sec": count / serial_seconds,
            "llm_calls": min(run["llm_calls"] for run in serial),
        },
        "batched": {
            "seconds": batched_seconds,
            "pairs_per_sec": count / batched_seconds,
            "llm_calls": max(run["llm_calls"] for run in batched),
            "speedup_vs_serial": serial_seconds / batched_seconds,
        },
        "cache_repeat": {
            "seconds": cache_seconds,
            "pairs_per_sec": count / cache_seconds,
            "new_llm_calls": max(run["new_llm_calls"] for run in batched),
            "speedup_vs_serial": serial_seconds / cache_seconds,
        },
        "cache_hit_rate": min(run["cache_hit_rate"] for run in batched),
    }


def write_and_check(report, path=REPORT_PATH):
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n\n=== service throughput (written to {path}) ===")
    print(json.dumps(report, indent=2))

    # The amortization acceptance bar: batched serving issues far fewer LLM
    # calls and is at least twice as fast as the per-pair serial baseline;
    # the cache pass adds zero LLM calls and is faster still.
    assert report["batched"]["llm_calls"] < report["serial"]["llm_calls"]
    assert report["batched"]["speedup_vs_serial"] >= 2.0
    assert report["cache_repeat"]["new_llm_calls"] == 0
    assert report["cache_repeat"]["speedup_vs_serial"] > report["batched"]["speedup_vs_serial"]


def test_service_throughput_vs_serial(benchmark, bench_settings):
    write_and_check(run_once(benchmark, run_service_bench, bench_settings))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args(argv)
    write_and_check(run_service_bench(default_bench_settings()), args.report)


if __name__ == "__main__":
    main()
