"""Tracing of a traced program process: the program's own tracer plus the
few wrappers it needs.

The program traces itself when given a :class:`~repro.observability.tracing.
Tracer`: ``BatchER(tracer=)`` and ``ResolutionService(tracer=)`` emit
``batcher:run``, ``service:flush`` (with its flush ``reason``),
``resolver:resolve``, ``stage:<name>`` and ``planner:*`` spans.  What it does
not trace is wrapped here, each wrapper a span on the same tracer:

* ``http:handle`` around ``ServiceRouter.handle`` — it joins the client's
  request trace named in the ``x-bench-request`` header;
* ``tenants:authenticate`` around ``TenantManager.authenticate``;
* ``service:resolve_many`` and ``service:submit`` (with the pair's id) around
  those ``ResolutionService`` methods;
* the submit-to-flush link: the ids of the pairs each flush resolved, set on
  the program's own ``service:flush`` span.

Model calls are observed through ``add_completion_observer`` and batch runs
through a :class:`StageHook`, both public extension points.

Spans stay in the tracer's memory while the program runs and are written as
``repro-trace`` JSONL when it ends, so the run pays no file writes.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

from repro.observability.export import JsonlTraceSink
from repro.observability.tracing import Span, Tracer, current_span
from repro.pipeline.pipeline import StageHook
from workloads import REQUEST_HEADER

#: More spans than any run makes (serve_hot: about 4 per request).
MAX_SPANS = 10_000_000


class Probes:
    """The tracer, the wrappers and what they observe.

    Attributes:
        tracer: pass it to ``BatchER``/``ResolutionService``.
        hook: a :class:`StageHook` for ``BatchER(hooks=...)``.
        llm_calls: ``(seconds, prompt_tokens, ended_at)`` of every model call.
        store_stats: feature-store statistics of each finished
            ``BatchER.run`` (its store lives only as long as the run).
        extra: spans made outside the tracer, written with its own.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.tracer = Tracer(max_spans=MAX_SPANS)
        self.hook = _BatchHook(self)
        self.llm_calls: list[tuple[float, int, float]] = []
        self.store_stats: list[object] = []
        self.extra: list[Span] = []
        self._observed: list[object] = []
        self._restore: list[tuple[type, str, object]] = []

    def install(self) -> "Probes":
        from repro.service.http import ServiceRouter
        from repro.service.service import ResolutionService
        from repro.service.tenants import TenantManager

        tracer = self.tracer
        self._replace(ServiceRouter, "handle", self._handle)
        self._replace(TenantManager, "authenticate", _spanned(tracer, "tenants:authenticate"))
        self._replace(ResolutionService, "resolve_many", _spanned(tracer, "service:resolve_many"))
        self._replace(ResolutionService, "submit", self._submit)
        self._replace(ResolutionService, "_flush_batch", self._flush_batch)
        return self

    def close(self) -> None:
        """Remove the wrappers and write every span to the trace file."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.path.unlink(missing_ok=True)
        with JsonlTraceSink(self.path) as sink:
            for span in self.tracer.finished_spans() + self.extra:
                sink.write(span)

    def _replace(self, owner: type, name: str, make) -> None:
        original = owner.__dict__[name]
        self._restore.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    # -- wrappers ---------------------------------------------------------------

    def _handle(self, original):
        tracer = self.tracer

        def handle(router, method, path, headers, body=None):
            with tracer.span("http:handle") as scope:
                trace, _, parent = (headers.get(REQUEST_HEADER) or "").partition("/")
                if trace:
                    scope.span.trace_id, scope.span.parent_id = trace, parent
                return original(router, method, path, headers, body)

        return handle

    def _submit(self, original):
        tracer = self.tracer

        def submit(service, pair, tenant=None):
            with tracer.span("service:submit", pair=pair.pair_id):
                return original(service, pair, tenant)

        return submit

    def _flush_batch(self, original):
        def flush_batch(service, batch):
            current_span().set_attribute("pairs", [request.pair.pair_id for request in batch])
            return original(service, batch)

        return flush_batch

    # -- observers ----------------------------------------------------------------

    def observe_llm(self, llm) -> None:
        """Record every call of ``llm`` (once per client object)."""
        if any(seen is llm for seen in self._observed):
            return
        self._observed.append(llm)
        calls = self.llm_calls

        def observer(response, seconds: float) -> None:
            calls.append((seconds, response.prompt_tokens, time.monotonic()))

        llm.add_completion_observer(observer)


def _spanned(tracer: Tracer, name: str):
    def make(original):
        def spanned(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return spanned

    return make


class _BatchHook(StageHook):
    """Observes each ``BatchER.run``'s model and, at its end, its feature store."""

    def __init__(self, probes: Probes) -> None:
        self._probes = probes

    def on_stage_start(self, stage, context) -> None:
        if stage.name == "inference":
            self._probes.observe_llm(context.llm)

    def on_stage_end(self, stage, context, seconds: float) -> None:
        if stage.name == "evaluate" and context.feature_store is not None:
            self._probes.store_stats.append(context.feature_store.stats())
