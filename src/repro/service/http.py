"""Transport-agnostic HTTP routing and JSON codecs for the resolution service.

:class:`ServiceRouter` maps one parsed request — method, path, lower-cased
headers, body bytes — to a :class:`RouteResult` (status, body, headers,
whether to close).  It never touches a socket: the asyncio front end
(:mod:`repro.service.aio`) owns the wire, and in-process callers can invoke
:meth:`ServiceRouter.handle` directly and get the exact bytes the server
would send.  A ``POST`` is routed in two steps, :meth:`ServiceRouter.admit`
then :meth:`ServiceRouter.finish`; ``handle`` waits on the admitted futures
between them, while the front end awaits them on its event loop.

Endpoints:

* ``POST /resolve`` — body ``{"pairs": [{"pair_id"?, "left": {...}, "right":
  {...}}]}`` where ``left``/``right`` are flat attribute→value mappings;
  responds ``{"resolutions": [Resolution.to_dict(), ...]}``.
* ``POST /bulk`` — same pair payload; resolves through the bulk path
  (:meth:`ResolutionService.resolve_bulk`), which bypasses the micro-batch
  queue and resolves the submission in chunks of at most
  ``batch_size ** 2`` pairs.  Unknown body keys are ignored.
* ``GET /stats`` — the service's :meth:`ServiceStats.to_dict` snapshot,
  consolidated with a ``"metrics"`` dump of the service's registry so both
  endpoints read from the same source of truth.
* ``GET /metrics`` — the registry in Prometheus text exposition format
  (``text/plain; version=0.0.4``), ready for an external scraper.
* ``GET /healthz`` — *liveness* probe: 200 while the process serves, with
  ``live`` / ``ready`` fields so one probe answers both questions.
* ``GET /readyz`` — *readiness* probe: 503 (+ ``Retry-After``) while the
  backend circuit breaker is open or the consumer is not running, so a load
  balancer drains the replica without restarting it.

Every ``GET`` route also answers ``HEAD`` (same status and headers, no
body) — load balancers commonly probe with HEAD.

Multi-tenant requests authenticate with an ``X-API-Key`` header (see
:mod:`repro.service.tenants`); an unknown key maps to 401, an over-quota or
budget-exhausted tenant to 429 (quota rejections carry a ``Retry-After``).

Error mapping: malformed requests → 400, cost-budget and tenant-quota
rejection → 429, queue backpressure and degraded mode (breaker open) → 503
(with ``Retry-After``; the backpressure value is derived from the queue
backlog, see :meth:`ResolutionService.overload_retry_after`), tripped
deadline budgets → 504.  Framing errors (stalled bodies → 408,
``Transfer-Encoding`` → 501, ambiguous ``Content-Length`` → 400) are the
front end's to answer.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import Future, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.data.schema import EntityPair, Record
from repro.pipeline.resolver import Resolution
from repro.resilience import CircuitOpenError, DeadlineExceeded
from repro.service.service import (
    CostBudgetExceeded,
    ResolutionService,
    ServiceClosed,
    ServiceDegraded,
    ServiceOverloaded,
)
from repro.service.tenants import (
    TenantBudgetExceeded,
    TenantQuotaExceeded,
    UnknownTenant,
)

#: Upper bound on accepted request bodies (1 MiB keeps parsing cheap).
MAX_BODY_BYTES = 1 << 20

#: Deadline for one HTTP resolve call (generous; micro-batches are fast).
RESOLVE_TIMEOUT_SECONDS = 60.0

_request_ids = itertools.count(1)


class BadRequest(ValueError):
    """A malformed ``/resolve`` payload (mapped to HTTP 400)."""


def _retry_after_header(seconds: float) -> str:
    """Format a ``Retry-After`` value: integral seconds, at least 1."""
    return str(max(1, math.ceil(seconds)))


def pair_from_json(payload: Mapping[str, Any], request_id: int) -> EntityPair:
    """Build an :class:`EntityPair` from one ``/resolve`` payload entry.

    Raises:
        BadRequest: when the entry is not ``{"left": {...}, "right": {...}}``
            with string attribute values.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest(f"pair entry must be an object, got {type(payload).__name__}")
    sides = {}
    for side in ("left", "right"):
        values = payload.get(side)
        if not isinstance(values, Mapping) or not values:
            raise BadRequest(f"pair entry needs a non-empty {side!r} object")
        clean: dict[str, str | None] = {}
        for name, value in values.items():
            if value is not None and not isinstance(value, str):
                raise BadRequest(
                    f"attribute {name!r} of {side!r} must be a string or null"
                )
            clean[str(name)] = value
        sides[side] = clean
    pair_id = payload.get("pair_id") or f"http-{request_id}"
    return EntityPair(
        pair_id=str(pair_id),
        left=Record(record_id=f"{pair_id}-L", values=sides["left"]),
        right=Record(record_id=f"{pair_id}-R", values=sides["right"]),
    )


def pairs_from_json(body: Any) -> list[EntityPair]:
    """Parse the full ``/resolve`` body into entity pairs.

    Raises:
        BadRequest: for anything other than ``{"pairs": [entry, ...]}``.
    """
    if not isinstance(body, Mapping) or "pairs" not in body:
        raise BadRequest('body must be a JSON object with a "pairs" array')
    entries = body["pairs"]
    if not isinstance(entries, list):
        raise BadRequest('"pairs" must be an array')
    return [pair_from_json(entry, next(_request_ids)) for entry in entries]


@dataclass(frozen=True)
class RouteResult:
    """One routed response, transport-agnostic.

    The front end turns this into wire bytes; an in-process caller of
    :meth:`ServiceRouter.handle` gets the same body, status and headers.

    Attributes:
        status: HTTP status code.
        body: response body bytes (the front end omits it for ``HEAD`` but
            still sends its length, per RFC 9110).
        content_type: ``Content-Type`` header value.
        headers: extra response headers (``Retry-After`` etc.).
        close: whether the connection must be closed after this response
            (error paths may not have consumed the request body; leaving the
            connection open would desynchronize HTTP/1.1 keep-alive).
    """

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()
    close: bool = False


def _json_result(
    status: int,
    payload: Mapping[str, Any],
    headers: tuple[tuple[str, str], ...] = (),
    close: bool = False,
) -> RouteResult:
    return RouteResult(
        status=status,
        body=json.dumps(payload).encode("utf-8"),
        headers=headers,
        close=close,
    )


def _error_result(
    status: int, message: str, headers: tuple[tuple[str, str], ...] = ()
) -> RouteResult:
    return _json_result(status, {"error": message}, headers=headers, close=True)


@dataclass
class Admission:
    """One ``POST`` admitted by :meth:`ServiceRouter.admit`, not yet answered.

    Attributes:
        started: the service clock when admission began (request latency).
        tenant: name of the authenticated tenant; ``None`` for anonymous or
            unauthenticated traffic.
        futures: one per submitted ``/resolve`` pair, in request order.
        result: the answer admission already settled (an error, or a
            ``/bulk`` body); ``None`` while the futures decide it.
    """

    started: float
    tenant: str | None = None
    futures: list[Future] = field(default_factory=list)
    result: RouteResult | None = None


class ServiceRouter:
    """Transport-agnostic request routing for one :class:`ResolutionService`.

    The HTTP front end delegates every parsed request here, so routing,
    tenant authentication, error mapping and response bodies do not depend
    on the transport.  Per-tenant request metrics
    (``repro_service_requests_total{tenant,status}`` and the latency
    histogram) are recorded once per ``POST``, by :meth:`finish`.
    """

    def __init__(self, service: ResolutionService) -> None:
        self.service = service

    def handle(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes | None = None,
    ) -> RouteResult:
        """Route one request; never raises (failures become error results).

        A ``POST`` is :meth:`admit`, a wait of at most
        :data:`RESOLVE_TIMEOUT_SECONDS` on the admitted futures, then
        :meth:`finish`.

        Args:
            method: ``GET``, ``HEAD`` or ``POST`` (anything else → 501).
            path: request path.
            headers: request headers with *lower-cased* names.
            body: request body (POST only).
        """
        if method in ("GET", "HEAD"):
            return self._handle_get(path)
        if method == "POST":
            admission = self.admit(path, headers, body if body is not None else b"")
            wait(admission.futures, timeout=RESOLVE_TIMEOUT_SECONDS)
            return self.finish(admission)
        return _error_result(501, f"unsupported method {method!r}")

    def admit(self, path: str, headers: Mapping[str, str], body: bytes) -> Admission:
        """Authenticate, parse and submit one ``POST``; never raises.

        A ``/resolve`` request never waits here: each pair is submitted
        (cache hits and finished joins come back done) and its future kept
        for :meth:`finish`; a full queue is refused at once on an event-loop
        thread (see :meth:`ResolutionService.submit`).  A ``/bulk`` request
        is resolved here, so its caller blocks until it is done.
        """
        service = self.service
        admission = Admission(started=service.metrics.clock.monotonic())
        try:
            tenant = service.authenticate(headers.get("x-api-key"))
            admission.tenant = tenant.name if tenant is not None else None
            if path not in ("/resolve", "/bulk"):
                admission.result = _error_result(404, f"unknown path {path!r}")
                return admission
            try:
                pairs = pairs_from_json(json.loads(body.decode("utf-8")))
            except (BadRequest, UnicodeDecodeError, json.JSONDecodeError) as error:
                admission.result = _error_result(400, str(error))
                return admission
            if path == "/bulk":
                admission.result = _resolutions_result(
                    service.resolve_bulk(pairs, tenant=tenant)
                )
            else:
                admission.futures = [service.submit(pair, tenant) for pair in pairs]
        except Exception as error:  # noqa: BLE001 - mapped to a response
            admission.result = self._failure_result(error)
        return admission

    def finish(self, admission: Admission) -> RouteResult:
        """Answer an admitted ``POST`` and record it in the request metrics.

        A future still pending here has outlived the caller's wait: the
        request is answered 503 (resolution timed out).
        """
        result = admission.result
        if result is None:
            try:
                result = _resolutions_result(
                    [future.result(timeout=0) for future in admission.futures]
                )
            except Exception as error:  # noqa: BLE001 - mapped to a response
                result = self._failure_result(error)
        self.service.observe_request(
            admission.tenant,
            result.status,
            self.service.metrics.clock.monotonic() - admission.started,
        )
        return result

    # -- GET/HEAD routes -----------------------------------------------------

    def _handle_get(self, path: str) -> RouteResult:
        service = self.service
        if path == "/healthz":
            # Liveness: always 200 while the process answers.  Readiness is
            # reported as a field here and as the status code of /readyz.
            return _json_result(
                200,
                {
                    "status": "ok",
                    "live": True,
                    "ready": service.ready,
                    "running": service.running,
                    "pool_size": service.resolver.pool_size,
                },
            )
        if path == "/readyz":
            breaker = service.breaker
            payload = {
                "ready": service.ready,
                "running": service.running,
                "breaker": breaker.stats() if breaker is not None else None,
            }
            if service.ready:
                return _json_result(200, payload)
            retry_after = breaker.retry_after if breaker is not None else 1.0
            return _json_result(
                503, payload, (("Retry-After", _retry_after_header(retry_after)),)
            )
        if path == "/stats":
            payload = service.stats().to_dict()
            payload["metrics"] = service.metrics.snapshot()
            return _json_result(200, payload)
        if path == "/metrics":
            return RouteResult(
                status=200,
                body=service.metrics.render().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        return _error_result(404, f"unknown path {path!r}")

    # -- POST errors ---------------------------------------------------------

    def _failure_result(self, error: Exception) -> RouteResult:
        """The response for a ``POST`` that admission or resolution refused."""
        if isinstance(error, UnknownTenant):
            return _error_result(401, str(error))
        if isinstance(error, TenantQuotaExceeded):
            return _error_result(
                429,
                str(error),
                (("Retry-After", _retry_after_header(error.retry_after)),),
            )
        if isinstance(error, (TenantBudgetExceeded, CostBudgetExceeded)):
            return _error_result(429, str(error))
        if isinstance(error, (ServiceDegraded, CircuitOpenError)):
            # Degraded mode: the breaker refused new LLM-bound work, either
            # at admission (ServiceDegraded) or deep in the transport
            # (CircuitOpenError surfacing through a failed flush future).
            retry_after = getattr(error, "retry_after", 1.0)
            return _error_result(
                503, str(error), (("Retry-After", _retry_after_header(retry_after)),)
            )
        if isinstance(error, ServiceOverloaded):
            # Backpressure: tell the client when the backlog should have
            # drained instead of a flat "come back in a second".
            retry_after = self.service.overload_retry_after()
            return _error_result(
                503, str(error), (("Retry-After", _retry_after_header(retry_after)),)
            )
        if isinstance(error, ServiceClosed):
            return _error_result(503, str(error), (("Retry-After", "1"),))
        if isinstance(error, DeadlineExceeded):
            return _error_result(504, str(error))
        # concurrent.futures.TimeoutError is only an alias of the builtin
        # from Python 3.11; check both to stay correct on 3.10.
        if isinstance(error, (TimeoutError, FutureTimeoutError)):
            return _error_result(503, "resolution timed out", (("Retry-After", "1"),))
        # A failed flush must not drop the connection without a response.
        return _error_result(500, f"resolution failed: {error}")


def _resolutions_result(resolutions: list[Resolution]) -> RouteResult:
    return _json_result(
        200, {"resolutions": [resolution.to_dict() for resolution in resolutions]}
    )
