"""``repro-serve``: run the micro-batching resolution server from the shell.

Default mode binds the HTTP front end over a service whose demonstration pool
is a named synthetic benchmark's train split:

.. code-block:: bash

    repro-serve --dataset beer --port 8777

``--self-test`` instead runs a deterministic end-to-end smoke check — 100
simulated concurrent requests (with duplicates) through the full
queue → micro-batcher → pipeline → cache path — and prints a JSON report.
It exits non-zero if micro-batching failed to amortize LLM calls, if no
duplicate joined its in-flight twin, if a repeated request set missed the
cache, or if an untraced re-run with the same seed produced different labels
from the traced first run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.config import BatcherConfig
from repro.data.registry import available_datasets, load_dataset
from repro.observability.tracing import Tracer
from repro.service.config import ServiceConfig
from repro.service.service import ResolutionService
from repro.service.tenants import TenantConfig


def parse_tenant(spec: str) -> TenantConfig:
    """Parse one ``--tenant`` spec: comma-separated ``key=value`` fields.

    ``name`` and ``key`` are required; ``rps``, ``burst`` and ``budget`` are
    optional, e.g. ``--tenant name=acme,key=k-acme,rps=50,budget=2.5``.
    """
    fields: dict[str, str] = {}
    for part in spec.split(","):
        name, sep, value = part.partition("=")
        if not sep or not name.strip():
            raise argparse.ArgumentTypeError(
                f"tenant field {part!r} is not key=value"
            )
        fields[name.strip()] = value.strip()
    unknown = set(fields) - {"name", "key", "rps", "burst", "budget"}
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown tenant fields: {sorted(unknown)}"
        )
    if "name" not in fields or "key" not in fields:
        raise argparse.ArgumentTypeError("tenant spec needs name= and key=")
    try:
        return TenantConfig(
            name=fields["name"],
            api_key=fields["key"],
            requests_per_second=float(fields["rps"]) if "rps" in fields else None,
            burst=float(fields["burst"]) if "burst" in fields else None,
            cost_budget=float(fields["budget"]) if "budget" in fields else None,
        )
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def build_service(args: argparse.Namespace) -> ResolutionService:
    """Build (but do not start) a service from parsed CLI arguments."""
    dataset = load_dataset(args.dataset, seed=args.data_seed, scale=args.scale)
    config = ServiceConfig(
        batcher=BatcherConfig(seed=args.seed, model=args.model),
        max_batch_size=args.max_batch_size,
        max_wait_seconds=args.max_wait,
        num_workers=args.workers,
        cache_capacity=args.cache_capacity,
        spill_path=args.spill,
        cost_budget=args.cost_budget,
        tenants=tuple(args.tenant),
        require_api_key=args.require_api_key,
    )
    return ResolutionService.from_dataset(dataset, config)


def run_self_test(
    seed: int = 1,
    data_seed: int = 7,
    dataset_name: str = "beer",
    scale: float = 1.0,
    model: str = "gpt-3.5-03",
    max_batch_size: int = 16,
    max_wait_seconds: float = 0.05,
    num_workers: int = ServiceConfig.num_workers,
) -> dict[str, object]:
    """Run the deterministic serving smoke test and return its report.

    The workload is 100 requests over (up to) 80 unique pairs plus 20
    duplicates, all submitted before the consumer starts so flush composition
    — and therefore every label — is reproducible for a fixed seed.

    The report's ``"ok"`` key is ``False`` when an amortization / cache /
    determinism invariant is violated (``main()`` turns that into exit code
    1); individual outcomes are under ``"checks"``.  The first pass runs with
    tracing enabled and the second without, so equal labels across the passes
    also prove that instrumentation observes the run without altering it.
    """
    dataset = load_dataset(dataset_name, seed=data_seed, scale=scale)
    unique = [pair.without_label() for pair in dataset.splits.test][:80]
    workload = unique + unique[: max(1, len(unique) // 4)]

    def serve_once(tracer: Tracer | None) -> tuple[list[int], dict[str, object]]:
        config = ServiceConfig(
            batcher=BatcherConfig(seed=seed, model=model),
            max_batch_size=max_batch_size,
            max_wait_seconds=max_wait_seconds,
            num_workers=num_workers,
        )
        service = ResolutionService.from_dataset(dataset, config, tracer=tracer)
        # Submit the whole workload before starting the consumer: flush
        # composition is then a pure function of the workload, which is what
        # makes every label reproducible for a fixed seed.
        futures = [service.submit(pair) for pair in workload]
        service.start()
        labels = [int(future.result(timeout=60.0).label) for future in futures]
        first_pass = service.stats().to_dict()
        # Phase 2: the same unique set again — must be pure cache hits.
        service.resolve_many(unique)
        repeat = service.stats().to_dict()
        service.stop()
        return labels, {"first_pass": first_pass, "repeat": repeat}

    labels, report = serve_once(Tracer())
    labels_again, _ = serve_once(None)

    first = report["first_pass"]
    repeat = report["repeat"]
    checks = {
        "fewer_llm_calls_than_requests": first["llm_calls"] < len(workload),
        "duplicates_joined_in_flight": first["inflight_joined"] >= 1,
        "repeat_hits_cache_with_zero_new_llm_calls": (
            repeat["llm_calls"] == first["llm_calls"]
            and repeat["cache_hits"] >= len(unique)
        ),
        "deterministic_labels_for_fixed_seed": labels == labels_again,
    }
    report.update(
        {
            "requests": len(workload),
            "unique_pairs": len(unique),
            "checks": checks,
            "ok": all(checks.values()),
        }
    )
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-serve`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Micro-batching entity-resolution server (simulated LLM).",
    )
    parser.add_argument(
        "--dataset",
        default="beer",
        choices=available_datasets(),
        help="benchmark whose train split seeds the demonstration pool",
    )
    parser.add_argument("--seed", type=int, default=1, help="session seed")
    parser.add_argument(
        "--data-seed", type=int, default=7, help="dataset generation seed"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale multiplier"
    )
    parser.add_argument("--model", default="gpt-3.5-03", help="LLM profile name")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8777)
    parser.add_argument(
        "--max-batch-size", type=int, default=32, help="pairs per micro-batch flush"
    )
    parser.add_argument(
        "--max-wait", type=float, default=0.05, help="micro-batch deadline (seconds)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=ServiceConfig.num_workers,
        help="LLM calls in flight across the service (also sets how many "
        "micro-batch flushes are in flight)",
    )
    parser.add_argument("--cache-capacity", type=int, default=4096)
    parser.add_argument(
        "--spill", default=None, help="JSONL path for cache warm-start/spill"
    )
    parser.add_argument(
        "--cost-budget", type=float, default=None, help="session budget in dollars"
    )
    parser.add_argument(
        "--tenant",
        action="append",
        type=parse_tenant,
        default=[],
        metavar="name=N,key=K[,rps=R][,burst=B][,budget=D]",
        help="register a tenant (repeatable); requests authenticate via X-API-Key",
    )
    parser.add_argument(
        "--require-api-key",
        action="store_true",
        help="reject requests without a registered X-API-Key (401)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the deterministic serving smoke test and exit",
    )
    args = parser.parse_args(argv)
    if args.require_api_key and not args.tenant:
        parser.error("--require-api-key needs at least one --tenant")

    if args.self_test:
        report = run_self_test(
            seed=args.seed,
            data_seed=args.data_seed,
            dataset_name=args.dataset,
            scale=args.scale,
            model=args.model,
            max_batch_size=args.max_batch_size,
            max_wait_seconds=args.max_wait,
            num_workers=args.workers,
        )
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] else 1

    from repro.service.aio import AsyncServiceHTTPServer

    service = build_service(args).start()
    server = AsyncServiceHTTPServer(
        service, host=args.host, port=args.port, verbose=True
    ).serve_in_background()
    print(f"repro-serve listening on {server.address}", flush=True)
    print(
        "try:  curl -s -X POST "
        f"{server.address}/resolve -d '"
        '{"pairs": [{"left": {"name": "ipa"}, "right": {"name": "IPA"}}]}\'',
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
