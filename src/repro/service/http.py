"""Transport-agnostic HTTP routing and JSON codecs for the resolution service.

:class:`ServiceRouter` maps one parsed request — method, path, lower-cased
headers, body bytes — to a :class:`RouteResult` (status, body, headers,
whether to close).  It never touches a socket: the asyncio front end
(:mod:`repro.service.aio`) owns the wire, and in-process callers can invoke
:meth:`ServiceRouter.handle` directly and get the exact bytes the server
would send.

Endpoints:

* ``POST /resolve`` — body ``{"pairs": [{"pair_id"?, "left": {...}, "right":
  {...}}]}`` where ``left``/``right`` are flat attribute→value mappings;
  responds ``{"resolutions": [Resolution.to_dict(), ...]}``.
* ``POST /bulk`` — same pair payload plus an optional ``"shards"`` integer;
  resolves through the engine-backed bulk path
  (:meth:`ResolutionService.resolve_bulk`), which shards the submission
  deterministically past the micro-batch queue.
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
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Mapping

from repro.data.schema import EntityPair, Record
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


def _shards_from_json(body: Mapping[str, Any]) -> int | None:
    """Parse the optional ``"shards"`` field of a ``/bulk`` body.

    Raises:
        BadRequest: when present but not a positive integer.
    """
    shards = body.get("shards")
    if shards is None:
        return None
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise BadRequest('"shards" must be a positive integer')
    return shards


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


class ServiceRouter:
    """Transport-agnostic request routing for one :class:`ResolutionService`.

    The HTTP front end delegates every parsed request here, so routing,
    tenant authentication, error mapping and response bodies do not depend
    on the transport.  Per-tenant request metrics
    (``repro_service_requests_total{tenant,status}`` and the latency
    histogram) are recorded for the POST routes on the way out.
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

        Args:
            method: ``GET``, ``HEAD`` or ``POST`` (anything else → 501).
            path: request path.
            headers: request headers with *lower-cased* names.
            body: request body (POST only).
        """
        if method in ("GET", "HEAD"):
            return self._handle_get(path)
        if method == "POST":
            clock = self.service.metrics.clock
            started = clock.monotonic()
            tenant_label: str | None = None
            try:
                tenant = self.service.authenticate(headers.get("x-api-key"))
                tenant_label = tenant.name if tenant is not None else None
                result = self._handle_post(path, body if body is not None else b"", tenant)
            except UnknownTenant as error:
                result = _error_result(401, str(error))
            self.service.observe_request(
                tenant_label, result.status, clock.monotonic() - started
            )
            return result
        return _error_result(501, f"unsupported method {method!r}")

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

    # -- POST routes ---------------------------------------------------------

    def _handle_post(self, path: str, raw: bytes, tenant) -> RouteResult:
        if path not in ("/resolve", "/bulk"):
            return _error_result(404, f"unknown path {path!r}")
        try:
            body = json.loads(raw.decode("utf-8"))
            pairs = pairs_from_json(body)
            shards = _shards_from_json(body) if path == "/bulk" else None
        except (BadRequest, UnicodeDecodeError, json.JSONDecodeError) as error:
            return _error_result(400, str(error))
        service = self.service
        try:
            if path == "/bulk":
                resolutions = service.resolve_bulk(pairs, shards=shards, tenant=tenant)
            else:
                resolutions = service.resolve_many(
                    pairs, timeout=RESOLVE_TIMEOUT_SECONDS, tenant=tenant
                )
        except TenantQuotaExceeded as error:
            return _error_result(
                429,
                str(error),
                (("Retry-After", _retry_after_header(error.retry_after)),),
            )
        except (TenantBudgetExceeded, CostBudgetExceeded) as error:
            return _error_result(429, str(error))
        except (ServiceDegraded, CircuitOpenError) as error:
            # Degraded mode: the breaker refused new LLM-bound work, either
            # at admission (ServiceDegraded) or deep in the transport
            # (CircuitOpenError surfacing through a failed flush future).
            retry_after = getattr(error, "retry_after", 1.0)
            return _error_result(
                503, str(error), (("Retry-After", _retry_after_header(retry_after)),)
            )
        except ServiceOverloaded as error:
            # Backpressure: tell the client when the backlog should have
            # drained instead of a flat "come back in a second".
            return _error_result(
                503,
                str(error),
                (
                    (
                        "Retry-After",
                        _retry_after_header(service.overload_retry_after()),
                    ),
                ),
            )
        except ServiceClosed as error:
            return _error_result(503, str(error), (("Retry-After", "1"),))
        except DeadlineExceeded as error:
            return _error_result(504, str(error))
        # concurrent.futures.TimeoutError is only an alias of the builtin
        # from Python 3.11; catch both to stay correct on 3.10.
        except (TimeoutError, FutureTimeoutError):
            return _error_result(503, "resolution timed out", (("Retry-After", "1"),))
        except Exception as error:  # noqa: BLE001 - a failed flush must not
            # drop the connection without a response.
            return _error_result(500, f"resolution failed: {error}")
        return _json_result(
            200, {"resolutions": [resolution.to_dict() for resolution in resolutions]}
        )
