"""``repro-serve``: run the micro-batching resolution server from the shell.

Default mode binds the HTTP front end over a service whose demonstration pool
is a named synthetic benchmark's train split:

.. code-block:: bash

    repro-serve --dataset beer --port 8777

``--self-test`` instead runs a deterministic end-to-end smoke check — 100
simulated concurrent requests (with duplicates) through the full
queue → micro-batcher → pipeline → cache path — and prints a JSON report.
It exits non-zero if micro-batching failed to amortize LLM calls, if a
repeated request set missed the cache, or if a re-run with the same seed
produced different labels.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from repro.core.config import BatcherConfig
from repro.data.registry import available_datasets, load_dataset
from repro.observability.tracing import Tracer
from repro.resilience import BreakerConfig
from repro.service.config import ServiceConfig
from repro.service.service import ResolutionService
from repro.service.tenants import TenantConfig

#: One Prometheus text-exposition sample line: ``name{labels} value``.
_SAMPLE_LINE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def _exposition_is_valid(text: str) -> bool:
    """Whether every non-comment line of ``text`` is a well-formed sample."""
    samples = [line for line in text.splitlines() if line and not line.startswith("#")]
    return bool(samples) and all(_SAMPLE_LINE.match(line) for line in samples)


def _family_total(text: str, name: str) -> float:
    """Sum of all sample values of one metric family in an exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest and rest[0] not in (" ", "{"):
            continue  # a longer family name sharing the prefix
        try:
            total += float(line.rsplit(" ", 1)[1])
        except (IndexError, ValueError):
            continue
    return total


#: Each integer counter of ``GET /stats`` (``engine.*`` nested) and the
#: ``GET /metrics`` sample — or, for a bare family name, family total — it
#: must equal.
_STATS_SAMPLES = {
    "submitted": "repro_service_submitted_total",
    "resolved": "repro_service_resolved_total",
    "inflight_joined": "repro_service_inflight_joined_total",
    "rejected_overload": 'repro_service_rejected_total{reason="overload"}',
    "rejected_budget": 'repro_service_rejected_total{reason="budget"}',
    "rejected_degraded": 'repro_service_rejected_total{reason="degraded"}',
    "flushes": "repro_service_flushes_total",
    "cache_hits": "repro_cache_hits_total",
    "cache_misses": "repro_cache_misses_total",
    "cache_size": "repro_cache_size",
    "queue_depth": "repro_queue_depth",
    "llm_calls": "repro_llm_calls_total",
    "engine.bulk_requests": "repro_service_bulk_requests_total",
    "engine.bulk_pairs": "repro_service_bulk_pairs_total",
    "engine.shards_resolved": "repro_service_bulk_shards_total",
    "engine.pairs_from_cache": 'repro_service_bulk_pairs_served_total{source="cache"}',
    "engine.pairs_resolved": 'repro_service_bulk_pairs_served_total{source="live"}',
}


def _stats_match_metrics(stats: dict, metrics_text: str) -> bool:
    """Whether every ``/stats`` counter equals its ``/metrics`` sample."""
    flat = {**stats, **{f"engine.{key}": value for key, value in stats["engine"].items()}}
    return all(
        sample in metrics_text and flat[key] == _family_total(metrics_text, sample)
        for key, sample in _STATS_SAMPLES.items()
    )


def _fetch_metrics(service: ResolutionService) -> tuple[str, str, dict]:
    """Serve the service over HTTP on a free port; GET ``/metrics`` and
    ``/stats``."""
    from urllib.request import urlopen

    from repro.service.aio import AsyncServiceHTTPServer

    server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
    try:
        with urlopen(f"{server.address}/metrics", timeout=10.0) as response:
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        with urlopen(f"{server.address}/stats", timeout=10.0) as response:
            stats = json.loads(response.read())
    finally:
        server.shutdown()
    return text, content_type, stats


def _frontend_checks(service: ResolutionService) -> dict[str, bool]:
    """Serve ``service`` over HTTP and compare the wire with the router.

    Returns check outcomes: a warmed (cached) ``POST /resolve`` must come off
    the wire with a body byte-identical to the one
    :meth:`~repro.service.http.ServiceRouter.handle` returns in-process for
    the same request, and ``HEAD /healthz`` must answer 200 with no body.
    """
    from urllib.request import Request, urlopen

    from repro.service.aio import AsyncServiceHTTPServer
    from repro.service.http import ServiceRouter

    payload = json.dumps(
        {
            "pairs": [
                {
                    "pair_id": "self-test-identity",
                    "left": {"name": "ipa", "style": "india pale ale"},
                    "right": {"name": "IPA", "style": "India Pale Ale"},
                }
            ]
        }
    ).encode("utf-8")

    def post(base: str) -> bytes:
        request = Request(
            f"{base}/resolve", data=payload, headers={"Content-Type": "application/json"}
        )
        with urlopen(request, timeout=30.0) as response:
            return response.read()

    server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
    try:
        post(server.address)  # warm the cache: the comparison below is a hit
        wire_body = post(server.address)
        request = Request(f"{server.address}/healthz", method="HEAD")
        with urlopen(request, timeout=10.0) as response:
            head = (response.status, response.read())
    finally:
        server.shutdown()
    routed = ServiceRouter(service).handle(
        "POST", "/resolve", {"content-type": "application/json"}, payload
    )
    return {
        "wire_body_byte_identical_to_router": (
            routed.status == 200 and bool(wire_body) and wire_body == routed.body
        ),
        "head_healthz_answered_without_body": head == (200, b""),
    }


def _tenant_checks() -> dict[str, bool]:
    """Deterministic (fake-clock) checks of the tenant admission layer."""
    from repro.engines.faults import FakeClock
    from repro.service.tenants import (
        TenantBudgetExceeded,
        TenantManager,
        TenantQuotaExceeded,
        UnknownTenant,
    )

    clock = FakeClock()
    manager = TenantManager(
        (
            TenantConfig(
                name="quota", api_key="k-quota", requests_per_second=1.0, burst=1.0
            ),
            TenantConfig(name="budget", api_key="k-budget", cost_budget=0.01),
        ),
        require_api_key=True,
        clock=clock,
    )

    quota = manager.authenticate("k-quota")
    assert quota is not None
    quota.admit()
    quota_rejects = False
    try:
        quota.admit()
    except TenantQuotaExceeded as error:
        quota_rejects = error.retry_after > 0
    clock.advance(1.5)  # refill at 1 req/s -> the bucket can afford one again
    quota.admit()
    quota_recovers = True

    budget = manager.authenticate("k-budget")
    assert budget is not None
    budget.check_budget()  # nothing spent yet
    budget.charge(0.02)
    budget_blocks = False
    try:
        budget.check_budget()
    except TenantBudgetExceeded:
        budget_blocks = True

    unknown_rejected = False
    try:
        manager.authenticate("wrong-key")
    except UnknownTenant:
        unknown_rejected = True
    missing_rejected = False
    try:
        manager.authenticate(None)  # keys are required for this manager
    except UnknownTenant:
        missing_rejected = True

    return {
        "tenant_quota_rejects_then_recovers": quota_rejects and quota_recovers,
        "tenant_budget_blocks_after_spend": budget_blocks,
        "unknown_or_missing_api_key_rejected": unknown_rejected and missing_rejected,
    }


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
    determinism / observability invariant is violated (``main()`` turns that
    into exit code 1); individual outcomes are under ``"checks"``.

    The first pass runs with tracing enabled and the second without: equal
    labels across the passes therefore also prove that instrumentation
    observes the run without altering it.  Before stopping, the first pass
    serves itself over HTTP on a free port and validates the ``GET /metrics``
    Prometheus exposition (populated latency histogram, retry counters,
    cache hit-rate gauge), including that every ``GET /stats`` counter
    equals its ``/metrics`` sample.
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
            # Gating enabled so the self-test also proves the breaker surface:
            # state in /stats, pre-seeded metric families, and (on a healthy
            # simulated backend) a breaker that never leaves "closed".
            breaker=BreakerConfig(),
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
        service.resolve_bulk(unique[:8])  # cached: exercises the bulk counters
        metrics_text, metrics_content_type, http_stats = _fetch_metrics(service)
        frontend_checks = _frontend_checks(service) if tracer is not None else {}
        service.stop()
        return labels, {
            "first_pass": first_pass,
            "repeat": repeat,
            "metrics_text": metrics_text,
            "metrics_content_type": metrics_content_type,
            "http_stats": http_stats,
            "frontend_checks": frontend_checks,
        }

    tracer = Tracer()
    labels, report = serve_once(tracer)
    labels_again, _ = serve_once(None)

    first = report["first_pass"]
    repeat = report["repeat"]
    feature_store = repeat.get("feature_store") or {}
    metrics_text = str(report.pop("metrics_text"))
    metrics_content_type = str(report.pop("metrics_content_type"))
    http_stats = report.pop("http_stats")
    spans = tracer.finished_spans()
    span_names = {span.name for span in spans}
    stage_spans = [span for span in spans if span.name.startswith("stage:")]
    checks = {
        "fewer_llm_calls_than_requests": first["llm_calls"] < len(workload),
        "duplicates_joined_in_flight": first["inflight_joined"] >= 1,
        "repeat_hits_cache_with_zero_new_llm_calls": (
            repeat["llm_calls"] == first["llm_calls"]
            and repeat["cache_hits"] >= len(unique)
        ),
        "deterministic_labels_for_fixed_seed": labels == labels_again,
        # The columnar feature engine memoizes every vector the session
        # computed (pool + questions), content-addressed by fingerprint.
        "feature_store_holds_session_vectors": (
            feature_store.get("size", 0) >= len(unique)
        ),
        # Pass 1 was traced, pass 2 was not; equal labels above already prove
        # tracing changed nothing.  These pin the trace shape itself.
        "traced_flushes_with_nested_stages": (
            {"service:flush", "resolver:resolve", "stage:inference"} <= span_names
            and bool(stage_spans)
            and all(span.parent_id is not None for span in stage_spans)
        ),
        "metrics_exposition_is_valid": (
            _exposition_is_valid(metrics_text)
            and metrics_content_type.startswith("text/plain")
        ),
        "llm_latency_histogram_populated": (
            _family_total(metrics_text, "repro_llm_latency_seconds_count") > 0
        ),
        "retry_counters_exposed": "repro_transport_retries_total" in metrics_text,
        "cache_hit_rate_gauge_populated": (
            _family_total(metrics_text, "repro_cache_hit_rate") > 0
        ),
        "flushes_counted_by_reason": (
            _family_total(metrics_text, "repro_service_flushes_total") >= 1
        ),
        # The registry is the only store of the service's event counters:
        # GET /stats over HTTP must report exactly what GET /metrics does.
        "stats_counters_match_metrics": _stats_match_metrics(http_stats, metrics_text),
        # The planner's counters must reach both surfaces: the /stats
        # planning dict (graphs, cross joins, edges) and the route metric.
        "planner_routing_counters_in_stats": (
            {"sparse_graphs", "cross_joins", "edges_built"}
            <= set(feature_store.get("planning") or {})
        ),
        "planner_route_metric_exposed": (
            "repro_planner_route_total" in metrics_text
            and _family_total(metrics_text, "repro_planner_route_total") >= 1
        ),
        # The resilience layer: breaker state must reach /stats, and every
        # breaker/degraded family must render pre-seeded — at zero, since the
        # simulated backend is healthy — so scrape schemas are stable before
        # the first outage.
        "breaker_state_in_stats": (
            (first.get("breaker") or {}).get("state") == "closed"
        ),
        "breaker_metrics_pre_seeded_at_zero": all(
            name in metrics_text and _family_total(metrics_text, name) == 0
            for name in (
                "repro_breaker_state",
                "repro_breaker_trips_total",
                "repro_breaker_fast_failures_total",
                "repro_service_degraded_total",
            )
        ),
        # Per-tenant request metric families render even without configured
        # tenants (pre-seeded for the anonymous label), so dashboards keyed on
        # them populate before the first API key is handed out.
        "tenant_request_metrics_exposed": (
            "repro_service_requests_total" in metrics_text
        ),
    }
    # The HTTP front end must put exactly the router's bytes on the wire and
    # the tenant layer must enforce quota/budget/auth deterministically —
    # both checked on the pass-1 service above.
    checks.update(report.pop("frontend_checks"))
    checks.update(_tenant_checks())
    report.update(
        {
            "requests": len(workload),
            "unique_pairs": len(unique),
            "feature_store": feature_store,
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
