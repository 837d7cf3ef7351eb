"""Benchmark: serving latency under concurrent multi-tenant load.

Three arms:

1. **Closed-loop load** — synthetic concurrent users against the asyncio
   front end (:class:`~repro.service.aio.AsyncServiceHTTPServer`) over real
   HTTP.  Each user is a closed loop: it POSTs one pair, waits for the
   response, and immediately posts the next.  The engine is the simulated
   LLM, so the numbers isolate the serving stack (socket handling, routing,
   micro-batching, cache) from model latency.  Emits p50/p95/p99 and
   throughput per concurrency level.
2. **Identity oracle** — two fresh, identically-seeded services are driven
   through the same sequential workload (a live pass and a cached pass):
   one over HTTP behind the asyncio front end, the other in-process through
   :meth:`~repro.service.http.ServiceRouter.handle`.  Every body that comes
   off the wire must be byte-identical to the routed one — the front end
   adds framing, never content.  Asserted, and timing-independent.
3. **Fairness oracle** — two tenants with equal quotas on a virtual clock:
   a greedy tenant hammers admission far past its rate while a respectful
   tenant submits exactly at its quota.  The respectful tenant must never be
   rejected (per-tenant buckets isolate it) and the greedy tenant must be
   capped near its quota with no accumulated debt.  Asserted, deterministic
   (FakeClock), timing-independent.

The report lands in ``BENCH_latency.json`` at the repository root and is
*tracked*: the oracle outcomes and level schema are stable facts; the
latency numbers themselves are machine-local context.

Standalone (the CI smoke invocation uses ``--small --oracles-only``)::

    PYTHONPATH=src python benchmarks/bench_latency.py
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.core.config import BatcherConfig
from repro.data.registry import load_dataset
from repro.engines.faults import FakeClock
from repro.service.aio import AsyncServiceHTTPServer
from repro.service.config import ServiceConfig
from repro.service.http import ServiceRouter
from repro.service.service import ResolutionService
from repro.service.tenants import (
    TenantConfig,
    TenantManager,
    TenantQuotaExceeded,
)

#: Where the headline numbers land (repository root, tracked).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_latency.json"

DEFAULT_LEVELS = (1, 4, 16)
SMALL_LEVELS = (1, 4)

DEFAULT_REQUESTS_PER_USER = 25
SMALL_REQUESTS_PER_USER = 5

#: Pairs driven over the wire and through the router by the identity arm.
DEFAULT_IDENTITY_PAIRS = 24
SMALL_IDENTITY_PAIRS = 8

#: Virtual seconds simulated by the fairness arm.
FAIRNESS_SECONDS = 20
#: Shared per-tenant quota (pairs/second) in the fairness arm.
FAIRNESS_QUOTA = 5.0
#: Greedy attempts per virtual second (10x its quota).
FAIRNESS_GREED = 50


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _build_service(seed: int = 1) -> ResolutionService:
    dataset = load_dataset("beer", seed=7)
    config = ServiceConfig(
        batcher=BatcherConfig(seed=seed),
        max_batch_size=16,
        max_wait_seconds=0.01,
        num_workers=4,
    )
    return ResolutionService.from_dataset(dataset, config)


def _post(base: str, payload: bytes) -> bytes:
    request = urllib.request.Request(
        f"{base}/resolve", data=payload, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        if response.status != 200:
            raise AssertionError(f"expected 200, got {response.status}")
        return response.read()


def _pair_payload(pair_id: str, left: str, right: str) -> bytes:
    return json.dumps(
        {
            "pairs": [
                {
                    "pair_id": pair_id,
                    "left": {"name": left},
                    "right": {"name": right},
                }
            ]
        }
    ).encode("utf-8")


def load_arm(
    levels: tuple[int, ...], requests_per_user: int
) -> list[dict[str, object]]:
    """Arm 1: closed-loop concurrent users against the asyncio front end."""
    results = []
    for concurrency in levels:
        service = _build_service().start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        latencies: list[float] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def user(user_id: int) -> None:
            try:
                for i in range(requests_per_user):
                    # A small vocabulary: early requests resolve live, later
                    # ones ride the cache — the realistic mixed path.
                    left = f"brew-{(user_id + i) % 8}"
                    payload = _pair_payload(
                        f"u{user_id}-r{i}", left, left.upper()
                    )
                    started = time.perf_counter()
                    _post(server.address, payload)
                    elapsed = time.perf_counter() - started
                    with lock:
                        latencies.append(elapsed)
            except BaseException as error:  # noqa: BLE001 - reported below
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=user, args=(user_id,))
            for user_id in range(concurrency)
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_started
        server.shutdown()
        service.stop()

        if errors:
            raise AssertionError(f"load arm failed at c={concurrency}: {errors[0]}")
        expected = concurrency * requests_per_user
        if len(latencies) != expected:
            raise AssertionError(
                f"load arm lost requests: {len(latencies)}/{expected}"
            )
        ordered = sorted(latencies)
        results.append(
            {
                "concurrency": concurrency,
                "requests": expected,
                "p50_ms": round(_percentile(ordered, 0.50) * 1000, 3),
                "p95_ms": round(_percentile(ordered, 0.95) * 1000, 3),
                "p99_ms": round(_percentile(ordered, 0.99) * 1000, 3),
                "throughput_rps": round(expected / wall, 1) if wall > 0 else None,
            }
        )
    return results


def identity_arm(num_pairs: int) -> dict[str, object]:
    """Arm 2: wire bodies must be byte-identical to routed bodies."""
    dataset = load_dataset("beer", seed=7)
    pairs = [pair.without_label() for pair in dataset.splits.test][:num_pairs]
    # Live pass then cached pass: both code paths must agree too.
    payloads = [
        json.dumps(
            {
                "pairs": [
                    {
                        "pair_id": f"id-{index}",
                        "left": dict(pair.left.values),
                        "right": dict(pair.right.values),
                    }
                ]
            }
        ).encode("utf-8")
        for _ in range(2)
        for index, pair in enumerate(pairs)
    ]

    service = _build_service().start()
    server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
    try:
        wire_bodies = [_post(server.address, payload) for payload in payloads]
    finally:
        server.shutdown()
        service.stop()

    service = _build_service().start()
    try:
        router = ServiceRouter(service)
        headers = {"content-type": "application/json"}
        routed_bodies = [
            router.handle("POST", "/resolve", headers, payload).body
            for payload in payloads
        ]
    finally:
        service.stop()

    identical = wire_bodies == routed_bodies
    if not identical:
        mismatches = sum(1 for a, b in zip(wire_bodies, routed_bodies) if a != b)
        raise AssertionError(
            f"wire and router disagree on {mismatches}/{len(wire_bodies)} bodies"
        )
    return {
        "pairs": num_pairs,
        "responses_compared": len(wire_bodies),
        "byte_identical": identical,
    }


def fairness_arm() -> dict[str, object]:
    """Arm 3: a greedy tenant must not starve a quota-respecting one."""
    clock = FakeClock()
    manager = TenantManager(
        (
            TenantConfig(
                name="greedy",
                api_key="k-greedy",
                requests_per_second=FAIRNESS_QUOTA,
                burst=FAIRNESS_QUOTA,
            ),
            TenantConfig(
                name="respectful",
                api_key="k-respectful",
                requests_per_second=FAIRNESS_QUOTA,
                burst=FAIRNESS_QUOTA,
            ),
        ),
        clock=clock,
    )
    greedy = manager.authenticate("k-greedy")
    respectful = manager.authenticate("k-respectful")
    assert greedy is not None and respectful is not None

    respectful_rejections = 0
    for _ in range(FAIRNESS_SECONDS):
        # The greedy tenant fires 10x its quota in a burst...
        for _ in range(FAIRNESS_GREED):
            try:
                greedy.admit()
            except TenantQuotaExceeded:
                pass
        # ...while the respectful one submits exactly its quota, spread out.
        per_second = int(FAIRNESS_QUOTA)
        for _ in range(per_second):
            try:
                respectful.admit()
            except TenantQuotaExceeded:
                respectful_rejections += 1
            clock.advance(1.0 / per_second)

    greedy_stats = greedy.stats()
    respectful_stats = respectful.stats()
    if respectful_rejections != 0:
        raise AssertionError(
            f"respectful tenant was rejected {respectful_rejections} times "
            "despite staying within quota — starved by the greedy tenant"
        )
    expected_respectful = FAIRNESS_SECONDS * int(FAIRNESS_QUOTA)
    if respectful_stats["admitted"] != expected_respectful:
        raise AssertionError(
            f"respectful tenant admitted {respectful_stats['admitted']}, "
            f"expected {expected_respectful}"
        )
    # The greedy tenant is capped near its quota: its burst capacity up
    # front plus its refill rate over the window, not one request more.
    cap = FAIRNESS_QUOTA + FAIRNESS_SECONDS * FAIRNESS_QUOTA
    if greedy_stats["admitted"] > cap:
        raise AssertionError(
            f"greedy tenant admitted {greedy_stats['admitted']}, "
            f"quota cap is {cap:g}"
        )
    if greedy_stats["rejected_quota"] == 0:
        raise AssertionError("greedy tenant was never rejected; harness broken")
    return {
        "virtual_seconds": FAIRNESS_SECONDS,
        "quota_pairs_per_second": FAIRNESS_QUOTA,
        "greedy_attempts_per_second": FAIRNESS_GREED,
        "greedy_admitted": greedy_stats["admitted"],
        "greedy_rejected": greedy_stats["rejected_quota"],
        "respectful_admitted": respectful_stats["admitted"],
        "respectful_rejected": respectful_rejections,
        "respectful_unstarved": respectful_rejections == 0,
    }


def run_bench(
    levels: tuple[int, ...],
    requests_per_user: int,
    identity_pairs: int,
    oracles_only: bool,
) -> dict[str, object]:
    arms: dict[str, object] = {}
    arms["identity"] = identity_arm(identity_pairs)
    arms["fairness"] = fairness_arm()
    arms["load"] = [] if oracles_only else load_arm(levels, requests_per_user)
    headline: dict[str, object] = {
        "identity_byte_identical": arms["identity"]["byte_identical"],
        "fairness_respectful_unstarved": arms["fairness"]["respectful_unstarved"],
    }
    for level in arms["load"]:
        headline[f"p99_ms_c{level['concurrency']}"] = level["p99_ms"]
    return {
        "benchmark": "serving-latency",
        "frontend": "asyncio (ServiceRouter in-process as identity oracle)",
        "engine": "simulated LLM (virtual cost)",
        "arms": arms,
        "headline": headline,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--levels",
        type=int,
        nargs="+",
        default=None,
        help="concurrency levels for the closed-loop load arm",
    )
    parser.add_argument(
        "--requests-per-user",
        type=int,
        default=None,
        help="requests each synthetic user issues per level",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="tiny run for the CI smoke invocation (oracles still assert)",
    )
    parser.add_argument(
        "--oracles-only",
        action="store_true",
        help="skip the timing arm; run only the identity and fairness oracles",
    )
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args()
    levels = tuple(args.levels) if args.levels else (
        SMALL_LEVELS if args.small else DEFAULT_LEVELS
    )
    requests_per_user = args.requests_per_user or (
        SMALL_REQUESTS_PER_USER if args.small else DEFAULT_REQUESTS_PER_USER
    )
    identity_pairs = SMALL_IDENTITY_PAIRS if args.small else DEFAULT_IDENTITY_PAIRS
    report = run_bench(levels, requests_per_user, identity_pairs, args.oracles_only)
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["headline"], indent=2))


if __name__ == "__main__":
    sys.exit(main())
