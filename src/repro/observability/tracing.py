"""Run-wide spans: nested, timestamped, attribute-carrying trace records.

A :class:`Tracer` produces :class:`Span` records organized into traces: each
span has an id, a parent, monotonic start/end timestamps, a status and a flat
attribute mapping.  The *current* span is tracked in a :class:`contextvars.
ContextVar`, so nesting falls out of lexical scoping::

    with tracer.span("resolve", pairs=8):
        with tracer.span("stage:featurize"):
            ...

Two properties shape the design:

* **Disabled tracing is near-free.**  :data:`NOOP_TRACER` is the default
  everywhere; its ``span()`` returns one shared do-nothing context manager
  without reading the clock, allocating a span or touching the context
  variable.  Hot paths that would build attribute dictionaries guard on
  :attr:`Tracer.enabled` first.
* **Context crosses execution boundaries.**  asyncio tasks copy the ambient
  context at creation, so spans started inside them parent correctly for
  free.  Thread pools do *not* copy context, so
  :class:`~repro.llm.executors.ConcurrentExecutor` runs each task in a copy
  of the submitting thread's context, which keeps worker spans parented to
  the span that submitted them.

Time is read through the injectable :class:`~repro.engines.transport.Clock`
protocol, so tests drive tracing with a
:class:`~repro.engines.faults.FakeClock` and assert exact durations without
sleeping.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Protocol

from repro.engines.transport import Clock

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "SpanSink",
    "Tracer",
    "current_span",
]

#: The ambient span of the calling context (task- and thread-scoped).
_current_span: ContextVar["Span | None"] = ContextVar("repro_current_span", default=None)


def current_span() -> "Span | None":
    """The span currently active in this context (``None`` outside any span)."""
    return _current_span.get()


@dataclass
class Span:
    """One traced operation: a named, timed, attributed interval.

    Attributes:
        name: operation name (e.g. ``"stage:inference"``).
        trace_id: id shared by every span of one root operation.
        span_id: unique id of this span within its tracer.
        parent_id: id of the enclosing span (``None`` for a trace root).
        started_at: monotonic start timestamp (tracer clock).
        ended_at: monotonic end timestamp (``None`` while running).
        status: ``"ok"``, ``"error"`` or ``"running"``.
        attributes: flat JSON-serializable key/value annotations.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    started_at: float
    ended_at: float | None = None
    status: str = "running"
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still running)."""
        if self.ended_at is None:
            return 0.0
        return self.ended_at - self.started_at

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one annotation to the span."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, object]:
        """The span's JSONL trace-file representation."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.started_at,
            "end": self.ended_at,
            "duration": self.duration,
            "status": self.status,
            "attributes": self.attributes,
        }


class SpanSink(Protocol):
    """Anything that accepts finished spans (e.g. a JSONL trace file)."""

    def write(self, span: Span) -> None:
        """Persist one finished span."""


class _ActiveSpan:
    """Context manager establishing one span as the current context span."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None

    @property
    def span(self) -> Span:
        """The underlying span (for attaching attributes mid-flight)."""
        return self._span

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one annotation to the underlying span."""
        self._span.attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self._token = _current_span.set(self._span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        span = self._span
        span.ended_at = self._tracer._clock.monotonic()
        if span.status == "running":
            span.status = "error" if exc_type is not None else "ok"
        if exc is not None and "error" not in span.attributes:
            span.attributes["error"] = f"{type(exc).__name__}: {exc}"
        self._tracer._record(span)


class _NoopActiveSpan:
    """Shared do-nothing stand-in returned by the no-op tracer."""

    __slots__ = ()

    span = None

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoopActiveSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_ACTIVE_SPAN = _NoopActiveSpan()


class Tracer:
    """Produces nested spans and collects them as they finish.

    Finished spans are kept in an in-memory ring (newest ``max_spans``) and,
    when a ``sink`` is attached, forwarded to it immediately — the sink is
    what persists a run's trace as JSONL
    (:class:`~repro.observability.export.JsonlTraceSink`).

    Args:
        sink: optional destination for finished spans.
        clock: time source; a :class:`~repro.engines.faults.FakeClock` makes
            every duration deterministic under test.
        max_spans: bound on the in-memory finished-span buffer (oldest spans
            are dropped first; the sink still sees every span).
    """

    #: Instance-level flag callers may guard attribute construction on.
    enabled: bool = True

    def __init__(
        self,
        sink: SpanSink | None = None,
        clock: Clock | None = None,
        max_spans: int = 100_000,
    ) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._sink = sink
        self._clock = clock or Clock()
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def span(self, name: str, **attributes: object) -> _ActiveSpan:
        """Open a child span of the current context span (or a new trace root).

        Use as a context manager; the span ends (and is recorded) on exit,
        with status ``"error"`` when the body raised.
        """
        parent = _current_span.get()
        if parent is None:
            trace_id = f"t{next(self._trace_ids):06d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{next(self._span_ids):08d}",
            parent_id=parent_id,
            started_at=self._clock.monotonic(),
            attributes=dict(attributes) if attributes else {},
        )
        return _ActiveSpan(self, span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)
            if len(self._finished) > self._max_spans:
                del self._finished[: len(self._finished) - self._max_spans]
        if self._sink is not None:
            self._sink.write(span)

    def finished_spans(self) -> list[Span]:
        """Snapshot of the finished spans recorded so far (oldest first)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop the in-memory finished-span buffer (the sink keeps its copy)."""
        with self._lock:
            self._finished.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(finished={len(self.finished_spans())}, sink={self._sink!r})"


class NoopTracer(Tracer):
    """The disabled tracer: every operation is a shared constant no-op.

    ``span()`` allocates nothing, never reads the clock and never touches the
    context variable — the cost of tracing-off on the hot path is one method
    call returning a module-level singleton (``tests/test_observability.py``
    checks that every ``span()`` returns that one object).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, **attributes: object) -> _NoopActiveSpan:  # type: ignore[override]
        return _NOOP_ACTIVE_SPAN

    def _record(self, span: Span) -> None:  # pragma: no cover - unreachable
        pass


#: Shared default tracer: tracing disabled.
NOOP_TRACER = NoopTracer()
