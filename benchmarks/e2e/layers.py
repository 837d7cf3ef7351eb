"""Per-layer metrics from a traced run's spans (``repro-trace`` JSONL records).

Aggregation is ``repro.observability.cli``'s: ``build_forest`` for the tree,
``self_time`` for a span's time outside its children and
``aggregate_by_name`` for per-layer busy totals.  On top of those, this module
splits each request's latency into the layers on its critical path
(:func:`attribute`) — the sum-check: whatever no layer accounts for is
reported as unattributed.

Span names are the program's own (``batcher:run``, ``service:flush``,
``resolver:resolve``, ``stage:<name>``, ``planner:*``), the wrappers' of
``probes.py`` (``http:handle``, ``tenants:authenticate``,
``service:resolve_many``, ``service:submit``) and the load generator's
(``loadgen:request`` from due time to last byte, ``loadgen:send`` from send
to last byte).

A request is a ``loadgen:request`` span or, in batch_suite, a ``batcher:run``
span (one job).  Its pairs are the ``service:submit`` spans below it, each
naming its pair; the ``service:flush`` that resolved a pair lists it in its
``pairs`` attribute.  A flush serves many requests and so is its own trace; a
request's wait is charged through the flush that resolved its last pair:
queue wait until that flush started, the flush's stages until answers were
parsed, then fan-out until the flush ended.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.observability.cli import aggregate_by_name, build_forest, self_time

from stats import percentile

Span = Mapping[str, object]

#: Stage names of ``Pipeline.default``, in order.
STAGES = (
    "featurize",
    "batch-questions",
    "select-demonstrations",
    "render-prompts",
    "inference",
    "parse-answers",
    "evaluate",
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("service.aio.frontend_us_p50", "us", "lower"),
    ("service.aio.frontend_us_p99", "us", "lower"),
    ("service.http.route_us_p50", "us", "lower"),
    ("service.http.route_us_p99", "us", "lower"),
    ("service.http.codec_us_p50", "us", "lower"),
    ("service.tenants.authenticate_us_p50", "us", "lower"),
    ("process.cpu_us_per_request", "us", "lower"),
    ("service.service.submit_us_p50", "us", "lower"),
    ("service.service.submit_us_p99", "us", "lower"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.microbatcher.queue_wait_ms_p50", "ms", "lower"),
    ("service.microbatcher.queue_wait_ms_p99", "ms", "lower"),
    ("service.microbatcher.flush_pairs_mean", "pairs", "higher"),
    ("service.microbatcher.flushes_deadline_ratio", "ratio", "lower"),
    ("service.flush_ms_p50", "ms", "lower"),
    ("service.flush_ms_p99", "ms", "lower"),
    ("service.service.fanout_ms_p50", "ms", "lower"),
    *((f"pipeline.{stage}.busy_s", "s", "lower") for stage in STAGES),
    *((f"pipeline.{stage}.p50_ms", "ms", "lower") for stage in STAGES),
    ("pipeline.unattributed_share", "ratio", "lower"),
    ("clustering.neighbors.dense_graphs", "count", "lower"),
    ("clustering.neighbors.sparse_graphs", "count", "lower"),
    ("clustering.neighbors.edges_built", "count", "lower"),
    ("llm.call_ms_p50", "ms", "lower"),
    ("llm.call_ms_p99", "ms", "lower"),
    ("llm.calls_per_1k_pairs", "count", "lower"),
    ("llm.prompt_tokens_per_pair", "tokens", "lower"),
    ("cost.labeled_per_1k_pairs", "count", "lower"),
    ("cost.api_usd_per_1k_pairs", "USD", "lower"),
    ("cost.labeling_usd_per_1k_pairs", "USD", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_share_p50", "ratio", "lower"),
)

REQUEST_ROOTS = ("loadgen:request", "batcher:run")


def start(span: Span) -> float:
    return float(span["start"])


def end(span: Span) -> float:
    return float(span["end"])


def duration(span: Span) -> float:
    return float(span["duration"])


def attributes(span: Span) -> Mapping[str, object]:
    return span.get("attributes") or {}


@dataclass(frozen=True)
class Attribution:
    """One request's latency split into the layers on its critical path."""

    latency: float
    parts: dict[str, float]

    @property
    def unattributed(self) -> float:
        return self.latency - sum(self.parts.values())

    @property
    def unattributed_share(self) -> float:
        return self.unattributed / self.latency if self.latency > 0 else 0.0


class Trace:
    """A span list indexed for attribution."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        _, self.children = build_forest(self.spans)
        self.flush_of_pair: dict[str, Span] = {
            str(pair): flush
            for flush in self.named("service:flush")
            for pair in attributes(flush).get("pairs", ())
        }
        self.by_id = {str(span["span"]): span for span in self.spans}

    def kids(self, span: Span, name: str | None = None) -> list[Span]:
        found = self.children.get(str(span["span"]), [])
        return [kid for kid in found if name is None or kid["name"] == name]

    def descendants(self, span: Span) -> list[Span]:
        found, stack = [], list(self.kids(span))
        while stack:
            span = stack.pop()
            found.append(span)
            stack.extend(self.kids(span))
        return found

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span["name"] == name]

    def self_time(self, span: Span) -> float:
        return self_time(span, self.children)

    def flush_of(self, submit: Span) -> Span | None:
        return self.flush_of_pair.get(str(attributes(submit).get("pair")))

    def parse_end(self, flush: Span) -> float | None:
        for span in self.descendants(flush):
            if span["name"] == "stage:parse-answers":
                return end(span)
        return None


def _stage_key(span: Span) -> str:
    return f"pipeline.{str(span['name']).split(':', 1)[1]}"


def _overlap(span: Span, low: float, high: float) -> float:
    return max(0.0, min(end(span), high) - max(start(span), low))


def attribute(trace: Trace, root: Span) -> Attribution:
    """Split ``root``'s latency into disjoint per-layer parts.

    The parts are intervals that do not overlap, so their sum never exceeds
    the latency; the remainder is time no span accounts for.
    """
    parts: dict[str, float] = {}
    if root["name"] == "batcher:run":
        for stage in trace.kids(root):
            parts[_stage_key(stage)] = parts.get(_stage_key(stage), 0.0) + duration(stage)
        return Attribution(duration(root), parts)

    sends = trace.kids(root, "loadgen:send")
    if not sends:
        return Attribution(duration(root), parts)
    send = sends[0]
    parts["loadgen.wait"] = start(send) - start(root)
    handles = trace.kids(send, "http:handle")
    holder: Span | None = send
    if handles:
        handle = handles[0]
        parts["service.aio.frontend"] = trace.self_time(send)
        parts["service.http.codec"] = trace.self_time(handle)
        for auth in trace.kids(handle, "tenants:authenticate"):
            parts["service.tenants.authenticate"] = duration(auth)
        many = trace.kids(handle, "service:resolve_many")
        holder = many[0] if many else None
    else:
        parts["loadgen.send"] = trace.self_time(send)
    submits = trace.kids(holder, "service:submit") if holder is not None else []
    if not submits:
        return Attribution(duration(root), parts)
    parts["service.service.submit"] = sum(duration(submit) for submit in submits)
    flushes = [flush for flush in map(trace.flush_of, submits) if flush is not None]
    flush = max(flushes, key=end, default=None)
    parsed = trace.parse_end(flush) if flush is not None else None
    if parsed is not None:
        submitted = max(end(submit) for submit in submits)
        parts["service.microbatcher.queue_wait"] = max(0.0, start(flush) - submitted)
        for stage in trace.descendants(flush):
            if str(stage["name"]).startswith("stage:"):
                key = _stage_key(stage)
                parts[key] = parts.get(key, 0.0) + _overlap(stage, submitted, parsed)
        parts["service.service.fanout"] = max(0.0, end(flush) - max(parsed, submitted))
    return Attribution(duration(root), parts)


def _p(values: Sequence[float], q: float, scale: float = 1.0) -> float:
    return percentile(values, q) * scale if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counters: Mapping[str, float],
    llm_calls: Sequence[Sequence[float]],
    pairs: int,
    lag_ms_p99: float,
    overhead_pct: float,
    since: float = float("-inf"),
    until: float = float("inf"),
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric (0.0 for a layer the workload skips).

    Args:
        spans: the traced run's spans (client and program side).
        counters: the program's counters over the measured window
            (``program.service_counters`` deltas, or batch totals).
        llm_calls: ``(seconds, prompt_tokens, ...)`` per model call in the window.
        pairs: pairs resolved in the window.
        since / until: the window; spans starting outside it belong to
            set-up, warm-up or another phase.
    """
    trace = Trace([span for span in spans if since <= start(span) <= until])
    roots = [span for span in trace.spans if span["name"] in REQUEST_ROOTS]
    attributions = [attribute(trace, root) for root in roots]
    handles = trace.named("http:handle")
    flushes = trace.named("service:flush")
    submits = trace.named("service:submit")
    waits = []
    for submit in submits:
        flush = trace.flush_of(submit)
        if flush is not None:
            waits.append(max(0.0, start(flush) - end(submit)))
    fanouts = []
    for flush in flushes:
        parsed = trace.parse_end(flush)
        if parsed is not None:
            fanouts.append(end(flush) - parsed)
    containers = trace.named("resolver:resolve") + trace.named("batcher:run")
    busy = {row["name"]: row["total_seconds"] for row in aggregate_by_name(trace.spans)}
    frontend = [a.parts["service.aio.frontend"] for a in attributions if "service.aio.frontend" in a.parts]
    seconds = [call[0] for call in llm_calls]

    metrics = {
        "service.aio.frontend_us_p50": _p(frontend, 50, 1e6),
        "service.aio.frontend_us_p99": _p(frontend, 99, 1e6),
        "service.http.route_us_p50": _p([duration(s) for s in handles], 50, 1e6),
        "service.http.route_us_p99": _p([duration(s) for s in handles], 99, 1e6),
        "service.http.codec_us_p50": _p([trace.self_time(s) for s in handles], 50, 1e6),
        "service.tenants.authenticate_us_p50": _p(
            [duration(s) for s in trace.named("tenants:authenticate")], 50, 1e6
        ),
        "process.cpu_us_per_request": _ratio(counters.get("cpu_s", 0.0) * 1e6, len(roots)),
        "service.service.submit_us_p50": _p([duration(s) for s in submits], 50, 1e6),
        "service.service.submit_us_p99": _p([duration(s) for s in submits], 99, 1e6),
        "service.cache.hit_ratio": _ratio(
            counters.get("cache_hits", 0),
            counters.get("cache_hits", 0) + counters.get("cache_misses", 0),
        ),
        "service.microbatcher.queue_wait_ms_p50": _p(waits, 50, 1e3),
        "service.microbatcher.queue_wait_ms_p99": _p(waits, 99, 1e3),
        "service.microbatcher.flush_pairs_mean": (
            statistics.fmean(int(attributes(f)["requests"]) for f in flushes) if flushes else 0.0
        ),
        "service.microbatcher.flushes_deadline_ratio": _ratio(
            sum(1 for f in flushes if attributes(f)["reason"] == "deadline"), len(flushes)
        ),
        "service.flush_ms_p50": _p([duration(s) for s in flushes], 50, 1e3),
        "service.flush_ms_p99": _p([duration(s) for s in flushes], 99, 1e3),
        "service.service.fanout_ms_p50": _p(fanouts, 50, 1e3),
    }
    for stage in STAGES:
        metrics[f"pipeline.{stage}.busy_s"] = busy.get(f"stage:{stage}", 0.0)
    for stage in STAGES:
        named = [duration(s) for s in trace.named(f"stage:{stage}")]
        metrics[f"pipeline.{stage}.p50_ms"] = _p(named, 50, 1e3)
    metrics.update(
        {
            "pipeline.unattributed_share": _ratio(
                sum(trace.self_time(s) for s in containers),
                sum(duration(s) for s in containers),
            ),
            "clustering.neighbors.dense_graphs": float(counters.get("dense_graphs", 0)),
            "clustering.neighbors.sparse_graphs": float(counters.get("sparse_graphs", 0)),
            "clustering.neighbors.edges_built": float(counters.get("edges_built", 0)),
            "llm.call_ms_p50": _p(seconds, 50, 1e3),
            "llm.call_ms_p99": _p(seconds, 99, 1e3),
            "llm.calls_per_1k_pairs": _ratio(len(llm_calls) * 1000.0, pairs),
            "llm.prompt_tokens_per_pair": _ratio(sum(call[1] for call in llm_calls), pairs),
            "cost.labeled_per_1k_pairs": _ratio(counters.get("labeled", 0) * 1000.0, pairs),
            "cost.api_usd_per_1k_pairs": _ratio(counters.get("api_usd", 0.0) * 1000.0, pairs),
            "cost.labeling_usd_per_1k_pairs": _ratio(
                counters.get("labeling_usd", 0.0) * 1000.0, pairs
            ),
            "loadgen.lag_ms_p99": lag_ms_p99,
            "trace.overhead_pct": overhead_pct,
            "trace.unattributed_share_p50": (
                statistics.median(a.unattributed_share for a in attributions)
                if attributions
                else 0.0
            ),
        }
    )
    return metrics
