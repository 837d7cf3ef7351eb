"""Online serving subsystem: micro-batching resolution server.

The paper amortizes per-question token cost *within* one run's batches; this
package applies the same amortization *across concurrent callers*.  Many
producers submit single :class:`~repro.data.schema.EntityPair` requests; a
bounded :class:`RequestQueue` plus :class:`MicroBatcher` aggregates them and
flushes micro-batches through one shared streaming
:class:`~repro.pipeline.resolver.Resolver` session, so the instruction and
demonstration tokens of each prompt are shared by questions from different
callers.

Layers:

* :class:`ResultCache` — pair-level LRU keyed by canonical content
  fingerprints (:func:`pair_fingerprint`, shared with the columnar feature
  engine), with optional JSONL spill / warm-start; repeat queries cost zero
  LLM calls, and spilled entries carry their feature vectors so a restart
  warm-starts the session's :class:`~repro.features.engine.FeatureStore` too.
* :class:`RequestQueue` / :class:`MicroBatcher` — bounded admission with
  backpressure, and size-or-deadline flushing.
* :class:`ResolutionService` — the facade: cache lookup, in-flight
  deduplication, cost-aware admission (:class:`CostBudgetExceeded` once the
  session budget is spent), ``submit`` / ``resolve_many`` / ``stats``, and
  the engine-backed ``resolve_bulk`` path that shards large submissions
  deterministically past the micro-batch queue (counters under
  ``stats().engine``).
* :mod:`repro.service.tenants` — multi-tenant admission: API keys
  (``X-API-Key``) resolving to per-tenant requests-per-second quotas
  (non-debiting token-bucket rejection → 429 + ``Retry-After``) and cost
  budgets (attributed flush costs; exhausted tenants degrade to cache hits).
* :mod:`repro.service.http` — the transport-agnostic ``ServiceRouter``:
  routes, tenant authentication, error mapping and JSON codecs
  (``POST /resolve``, ``POST /bulk``, ``GET /stats``, ``GET /healthz``;
  every GET route answers HEAD).
* :mod:`repro.service.aio` — the stdlib asyncio HTTP/1.1 front end that
  owns the wire (keep-alive, strict ``Content-Length`` framing, read
  deadlines, graceful drain) and hands each request to the router; exposed
  via the ``repro-serve`` console script (:mod:`repro.service.cli`).
"""

from repro.service.cache import CachedResult, ResultCache, pair_fingerprint
from repro.service.config import ServiceConfig
from repro.service.microbatcher import (
    AdmissionError,
    MicroBatcher,
    PendingRequest,
    RequestQueue,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.service.service import (
    CostBudgetExceeded,
    EngineStats,
    ResolutionService,
    ServiceDegraded,
    ServiceStats,
)
from repro.service.tenants import (
    Tenant,
    TenantBudgetExceeded,
    TenantConfig,
    TenantManager,
    TenantQuotaExceeded,
    UnknownTenant,
)

__all__ = [
    "AdmissionError",
    "CachedResult",
    "CostBudgetExceeded",
    "EngineStats",
    "MicroBatcher",
    "PendingRequest",
    "RequestQueue",
    "ResolutionService",
    "ResultCache",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceDegraded",
    "ServiceOverloaded",
    "ServiceStats",
    "Tenant",
    "TenantBudgetExceeded",
    "TenantConfig",
    "TenantManager",
    "TenantQuotaExceeded",
    "UnknownTenant",
    "pair_fingerprint",
]
