"""Unified tracing + metrics layer.

Three pieces, designed to be wired through the existing seams rather than
around them:

* :mod:`repro.observability.tracing` — nested :class:`Span` records produced
  by a :class:`Tracer`, with context propagation across thread pools and
  asyncio tasks.  :data:`NOOP_TRACER` (the default everywhere) makes disabled
  tracing near-free.
* :mod:`repro.observability.metrics` — a Prometheus-style
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket histograms,
  rendered in text exposition format for ``GET /metrics``.
* :mod:`repro.observability.export` — the append-only JSONL trace sink and
  reader behind the ``repro-trace`` CLI (:mod:`repro.observability.cli`).
"""

from repro.observability.export import JsonlTraceSink, read_trace_file
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanSink,
    Tracer,
    current_span,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "SpanSink",
    "Tracer",
    "current_span",
    "read_trace_file",
]
