"""The resolution service facade: cache → admission → queue → micro-batch.

:class:`ResolutionService` wraps one shared :class:`~repro.pipeline.resolver.
Resolver` session behind a bounded request queue and a micro-batching
consumer.  A submitted pair takes one of three paths:

1. **cache hit** — the canonical content fingerprint is already cached; the
   returned future is completed immediately at zero LLM cost;
2. **in-flight join** — an identical pair is already queued or being resolved;
   the new future attaches to the pending entry, so one LLM question serves
   every duplicate submitter;
3. **admission** — otherwise the request passes cost-aware admission (the
   optional session ``cost_budget``) and backpressure (the bounded queue),
   then waits for the micro-batcher to flush it through the pipeline.

Requests may be submitted before :meth:`ResolutionService.start`; they simply
queue up (capacity permitting) and are drained once the consumer starts.
Pre-start submission gives deterministic flush compositions, which the
self-test and benchmarks use to pin down exact outputs for a fixed seed.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import ContextManager, Iterable, Sequence

from repro.cost.tracker import CostBreakdown
from repro.data.schema import Dataset, EntityPair
from repro.engine.sharding import ShardPlanner
from repro.engines.base import Engine as EngineBackend
from repro.engines.transport import Clock, RetryingTransport
from repro.features.engine import FeatureStoreStats
from repro.llm.executors import ConcurrentExecutor, ExecutionBackend, SerialExecutor
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.pipeline.resolver import Resolution, Resolver
from repro.resilience import (
    STATE_OPEN,
    CircuitBreaker,
    DeadlineBudget,
    deadline_scope,
)
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
from repro.service.tenants import ANONYMOUS_TENANT, Tenant, TenantManager

__all__ = [
    "AdmissionError",
    "CostBudgetExceeded",
    "EngineStats",
    "ResolutionService",
    "ServiceClosed",
    "ServiceDegraded",
    "ServiceOverloaded",
    "ServiceStats",
]

#: Retry-After ceiling for overload responses when no breaker cooldown is
#: configured to clamp against (seconds).
DEFAULT_OVERLOAD_RETRY_CAP = 30.0


@dataclass(frozen=True)
class EngineStats:
    """Counters of the service's engine-backed bulk path.

    Attributes:
        bulk_requests: calls to :meth:`ResolutionService.resolve_bulk`.
        bulk_pairs: pairs submitted through the bulk path in total.
        shards_resolved: bulk shards that completed resolution (a request
            rejected mid-way — e.g. by the cost budget — stops counting at
            the shard the rejection struck).
        pairs_from_cache: bulk pairs served by the result cache, by an
            in-flight join, or by deduplication within one submission — all
            at zero LLM cost.
        pairs_resolved: distinct bulk pairs resolved live by the session.
    """

    bulk_requests: int = 0
    bulk_pairs: int = 0
    shards_resolved: int = 0
    pairs_from_cache: int = 0
    pairs_resolved: int = 0

    def to_dict(self) -> dict[str, int]:
        """Return a plain-dict snapshot (JSON-serializable, for ``/stats``)."""
        return asdict(self)


class CostBudgetExceeded(AdmissionError):
    """Raised when the session cost budget is exhausted (cache still serves)."""


class ServiceDegraded(AdmissionError):
    """New LLM-bound work refused because the backend breaker is open.

    Cache hits and in-flight joins are still served — a degraded service
    shrinks to a cache, it does not go dark.  The HTTP layer maps this to
    503 with a ``Retry-After`` header taken from :attr:`retry_after`.

    Attributes:
        retry_after: seconds until the breaker will next admit a probe.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, retry_after)


@dataclass(frozen=True)
class ServiceStats:
    """A typed point-in-time snapshot of the service's counters.

    Event counters are read from their families in
    :attr:`ResolutionService.metrics`, the store behind ``GET /metrics``.

    Attributes:
        submitted: requests accepted by :meth:`ResolutionService.submit`
            (cache hits and in-flight joins included, rejections excluded).
        resolved: futures returned by :meth:`ResolutionService.submit` that
            completed with a resolution so far (bulk pairs are counted in
            :attr:`engine` instead).
        cache_hits / cache_misses: result-cache lookup outcomes.
        cache_size: current number of cached entries.
        inflight_joined: requests that attached to an already-pending
            identical pair instead of enqueueing a duplicate.
        rejected_overload: submissions rejected by queue backpressure.
        rejected_budget: submissions rejected by the cost budget.
        rejected_degraded: submissions refused while the backend breaker was
            open (degraded mode; cache hits and joins are never refused).
        queue_depth: requests currently waiting in the queue.
        flushes: micro-batches flushed through the pipeline.
        llm_calls: cumulative LLM calls of the underlying session.
        pool_size / num_labeled: demonstration-pool accounting of the session.
        cost: cumulative session :class:`CostBreakdown`.
        engine: counters of the engine-backed bulk path
            (:meth:`ResolutionService.resolve_bulk`).
        llm_engine: operational snapshot of the session's LLM engine backend
            (name, model, capability flags, request/token counters and — for
            HTTP backends — retry and rate-limit counters), from
            :meth:`repro.engines.base.Engine.describe`; ``None`` when the
            session's LLM is not a registered engine.
        feature_store: snapshot of the session's columnar feature-vector
            store (size, hit rate, evictions, and the ``planning`` routing
            counters of its sparse-neighbor-graph planner); ``None`` before
            the store exists (no demonstrations yet).
        uptime_seconds: seconds since :meth:`ResolutionService.start` (0.0
            before).
        throughput_pairs_per_second: ``resolved / uptime_seconds``.
        breaker: snapshot of the backend circuit breaker (state, trips,
            fast failures, open duration); ``None`` when gating is disabled.
        tenants: per-tenant admission/spend blocks keyed by tenant name
            (admitted, quota/budget rejections, attributed cost); ``None``
            when no tenants are configured.
    """

    submitted: int
    resolved: int
    cache_hits: int
    cache_misses: int
    cache_size: int
    inflight_joined: int
    rejected_overload: int
    rejected_budget: int
    rejected_degraded: int
    queue_depth: int
    flushes: int
    llm_calls: int
    pool_size: int
    num_labeled: int
    cost: CostBreakdown
    engine: EngineStats
    llm_engine: dict | None
    feature_store: FeatureStoreStats | None
    uptime_seconds: float
    throughput_pairs_per_second: float
    breaker: dict | None = None
    tenants: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict[str, object]:
        """Return a plain-dict snapshot (JSON-serializable, for ``/stats``)."""
        return {
            "submitted": self.submitted,
            "resolved": self.resolved,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_size": self.cache_size,
            "cache_hit_rate": self.cache_hit_rate,
            "inflight_joined": self.inflight_joined,
            "rejected_overload": self.rejected_overload,
            "rejected_budget": self.rejected_budget,
            "rejected_degraded": self.rejected_degraded,
            "queue_depth": self.queue_depth,
            "flushes": self.flushes,
            "llm_calls": self.llm_calls,
            "pool_size": self.pool_size,
            "num_labeled": self.num_labeled,
            "cost": self.cost.to_dict(),
            "engine": self.engine.to_dict(),
            "llm_engine": self.llm_engine,
            "feature_store": (
                self.feature_store.to_dict() if self.feature_store is not None else None
            ),
            "uptime_seconds": self.uptime_seconds,
            "throughput_pairs_per_second": self.throughput_pairs_per_second,
            "breaker": self.breaker,
            "tenants": self.tenants,
        }


class ResolutionService:
    """Micro-batching resolution server over one shared resolver session.

    Args:
        config: serving-layer configuration (micro-batch shape, queue bound,
            cache capacity, cost budget); its ``batcher`` field configures the
            underlying session.
        resolver: optional pre-built session; by default one is created from
            ``config.batcher`` with a worker pool of ``config.num_workers``
            threads for concurrent prompt dispatch within each flush.
        demonstrations: labeled pool for the default-built resolver (ignored
            when ``resolver`` is given).
        attributes: attribute schema for the default-built resolver.
        clock: injectable time source for every deadline the service computes
            (admission timeouts, batch deadlines, resolve waits, uptime);
            tests drive it with a :class:`~repro.engines.faults.FakeClock`.
        tracer: span producer threaded through the session, micro-batch
            flushes and the LLM transport; default: tracing disabled.
        metrics: metrics registry to populate; by default the service builds
            its own (always exposed via :attr:`metrics` and ``GET /metrics``).
        breaker: pre-built circuit breaker to adopt (shared with an engine's
            transport, for example); by default one is built from
            ``config.breaker`` when that is set, and an engine-level breaker
            already on the session's transport is adopted otherwise.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        resolver: Resolver | None = None,
        demonstrations: Sequence[EntityPair] = (),
        attributes: tuple[str, ...] | None = None,
        clock: Clock | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock or Clock()
        self.tracer = tracer or NOOP_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry(self._clock)
        self._owns_executor = resolver is None
        self._executor: ExecutionBackend | None = None
        if resolver is None:
            self._executor = (
                ConcurrentExecutor(self.config.num_workers, persistent=True)
                if self.config.num_workers > 1
                else SerialExecutor()
            )
            resolver = Resolver(
                config=self.config.batcher,
                demonstrations=demonstrations,
                attributes=attributes,
                executor=self._executor,
                tracer=self.tracer if self.tracer.enabled else None,
            )
        elif tracer is not None:
            resolver.tracer = tracer
        self._resolver = resolver
        self._cache = ResultCache(self.config.cache_capacity)
        self._queue = RequestQueue(self.config.queue_capacity, clock=self._clock)
        self._batcher = MicroBatcher(
            self._queue,
            self._flush,
            max_batch_size=self.config.max_batch_size,
            max_wait=self.config.max_wait_seconds,
        )
        # fingerprint -> list of (pair-as-submitted, future, from_submit)
        # awaiting one in-flight resolution.  The first entry's pair is the
        # one resolved; ``from_submit`` is False for futures a bulk request
        # attached, which the ``resolved`` counter does not count.
        self._inflight: dict[str, list[tuple[EntityPair, Future, bool]]] = {}
        # Spilled feature vectors that arrived before the session's feature
        # store existed (schema not yet known); seeded once it does.
        self._pending_vectors: dict[str, tuple[list[float], str | None]] = {}
        self._lock = threading.Lock()
        # Serializes session access between the micro-batch consumer thread
        # and bulk callers — the Resolver is a shared, stateful session.
        self._resolver_lock = threading.Lock()
        self._started_at: float | None = None
        self._stopped = False
        # Multi-tenant admission: API keys → quota buckets + cost budgets.
        self.tenants = TenantManager(
            self.config.tenants,
            require_api_key=self.config.require_api_key,
            clock=self._clock,
        )
        # Availability gating: build a breaker from config (or adopt the one
        # passed in / already on the engine's transport) and make sure the
        # transport both consults and feeds it.
        self.breaker: CircuitBreaker | None = breaker
        if self.breaker is None and self.config.breaker is not None:
            llm = self._resolver.llm
            self.breaker = CircuitBreaker(
                self.config.breaker,
                clock=self._clock,
                name=getattr(llm, "engine_name", type(llm).__name__),
            )
        transport = getattr(self._resolver.llm, "transport", None)
        if isinstance(transport, RetryingTransport):
            if self.breaker is None:
                self.breaker = transport.breaker
            elif transport.breaker is None:
                transport.breaker = self.breaker
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Register the metric families behind ``/metrics`` and ``/stats``.

        The registry is the only store of the service's own event counters
        (submissions, resolutions, joins, rejections, flushes, bulk work):
        each is incremented where the event happens and :meth:`stats` reads
        it back.  State owned by another component (cache, breaker, tenants,
        usage tracker, queue, feature store) is read through scrape-time
        callbacks, so that component stays its single owner.
        """
        metrics = self.metrics
        self._metric_flushes = metrics.counter(
            "repro_service_flushes_total",
            "Micro-batch flushes by trigger reason.",
            labels=("reason",),
        )
        for reason in ("size", "deadline", "close"):
            self._metric_flushes.inc(0, reason=reason)
        self._metric_flush_seconds = metrics.histogram(
            "repro_service_flush_seconds", "Micro-batch flush latency."
        )
        # Per-tenant request families, pre-seeded for every configured tenant
        # (and the anonymous label) so scrapers see a stable schema before a
        # tenant's first request — the same discipline as the breaker/429
        # pre-seeding below.
        self._metric_requests = metrics.counter(
            "repro_service_requests_total",
            "Front-end requests by tenant and HTTP status.",
            labels=("tenant", "status"),
        )
        self._metric_request_seconds = metrics.histogram(
            "repro_service_request_seconds",
            "Front-end request latency by tenant.",
            labels=("tenant",),
        )
        for name in (*self.tenants.names, ANONYMOUS_TENANT):
            self._metric_requests.inc(0, tenant=name, status="200")
        self._metric_llm_latency = metrics.histogram(
            "repro_llm_latency_seconds",
            "LLM completion latency by engine and model.",
            labels=("engine", "model"),
        )
        llm = self._resolver.llm
        engine_label = getattr(llm, "engine_name", type(llm).__name__)

        def observe_completion(response, seconds: float) -> None:
            self._metric_llm_latency.observe(
                seconds, engine=engine_label, model=response.model
            )

        llm.add_completion_observer(observe_completion)

        usage = self._resolver.usage
        metrics.counter(
            "repro_llm_calls_total", "LLM calls made by the session."
        ).set_function(lambda: usage.num_calls)
        tokens = metrics.counter(
            "repro_llm_tokens_total", "Tokens spent by the session.", labels=("kind",)
        )
        tokens.set_function(lambda: usage.prompt_tokens, kind="prompt")
        tokens.set_function(lambda: usage.completion_tokens, kind="completion")
        metrics.gauge(
            "repro_llm_cost_dollars", "Cumulative session cost (API + labeling)."
        ).set_function(lambda: self._resolver.cost().total_cost)

        cache = self._cache
        metrics.counter(
            "repro_cache_hits_total", "Result-cache lookup hits."
        ).set_function(lambda: cache.hits)
        metrics.counter(
            "repro_cache_misses_total", "Result-cache lookup misses."
        ).set_function(lambda: cache.misses)
        metrics.gauge(
            "repro_cache_size", "Entries currently in the result cache."
        ).set_function(lambda: len(cache))
        metrics.gauge(
            "repro_cache_hit_rate", "Fraction of result-cache lookups served."
        ).set_function(
            lambda: cache.hits / (cache.hits + cache.misses)
            if (cache.hits + cache.misses)
            else 0.0
        )
        metrics.gauge(
            "repro_feature_store_hit_rate",
            "Fraction of feature-vector lookups served from the store.",
        ).set_function(self._feature_store_hit_rate)
        metrics.gauge(
            "repro_feature_store_size", "Feature vectors currently cached."
        ).set_function(
            lambda: self._resolver.feature_store.stats().size
            if self._resolver.feature_store is not None
            else 0
        )
        planner_routes = metrics.counter(
            "repro_planner_route_total",
            "Epsilon-graph builds by planner routing regime.",
            labels=("regime",),
        )
        planner_routes.set_function(
            lambda: self._planner_stat("sparse_graphs"), regime="sparse"
        )
        planner_routes.set_function(
            lambda: self._planner_stat("lsh_graphs"), regime="lsh"
        )
        metrics.counter(
            "repro_planner_lsh_candidates_total",
            "Directed candidate pairs verified by the LSH planning regime.",
        ).set_function(lambda: self._planner_stat("lsh_candidates"))
        metrics.gauge(
            "repro_queue_depth", "Requests waiting in the micro-batch queue."
        ).set_function(lambda: len(self._queue))
        self._metric_submitted = metrics.counter(
            "repro_service_submitted_total", "Requests accepted by submit()."
        )
        self._metric_resolved = metrics.counter(
            "repro_service_resolved_total",
            "Futures returned by submit() completed with a resolution.",
        )
        self._metric_joined = metrics.counter(
            "repro_service_inflight_joined_total",
            "Requests that joined an identical in-flight pair.",
        )
        self._metric_rejected = metrics.counter(
            "repro_service_rejected_total",
            "Submissions rejected at admission, by reason.",
            labels=("reason",),
        )
        for reason in ("overload", "budget", "degraded"):
            self._metric_rejected.inc(0, reason=reason)
        self._metric_bulk_requests = metrics.counter(
            "repro_service_bulk_requests_total", "Calls to resolve_bulk()."
        )
        self._metric_bulk_pairs = metrics.counter(
            "repro_service_bulk_pairs_total", "Pairs submitted to resolve_bulk()."
        )
        self._metric_bulk_shards = metrics.counter(
            "repro_service_bulk_shards_total", "Bulk shards that completed resolution."
        )
        self._metric_bulk_served = metrics.counter(
            "repro_service_bulk_pairs_served_total",
            "Bulk pairs served by the cache (zero LLM cost) or resolved live.",
            labels=("source",),
        )
        for source in ("cache", "live"):
            self._metric_bulk_served.inc(0, source=source)

        # Breaker families render even without a breaker (at zero / closed):
        # scrapers must see a stable schema whether or not gating is on, the
        # same discipline as the pre-seeded 429 retry counter below.
        breaker = self.breaker
        metrics.gauge(
            "repro_breaker_state",
            "Backend circuit-breaker state (0=closed, 1=open, 2=half-open).",
        ).set_function(lambda: breaker.state_code() if breaker is not None else 0)
        metrics.counter(
            "repro_breaker_trips_total",
            "Times the breaker tripped open (probe re-opens included).",
        ).set_function(lambda: breaker.trips if breaker is not None else 0)
        metrics.counter(
            "repro_breaker_fast_failures_total",
            "Requests refused by the breaker without touching the backend.",
        ).set_function(lambda: breaker.fast_failures if breaker is not None else 0)
        metrics.counter(
            "repro_breaker_open_seconds_total",
            "Cumulative seconds the breaker spent open or half-open.",
        ).set_function(
            lambda: breaker.open_seconds_total() if breaker is not None else 0.0
        )
        # Kept for existing scrapers; an alias of one rejected_total sample.
        metrics.counter(
            "repro_service_degraded_total",
            "Submissions refused in degraded mode (breaker open).",
        ).set_function(lambda: self._metric_rejected.value(reason="degraded"))

        # HTTP-backed engines route through a RetryingTransport; bind the
        # service's tracer and registry so retry/429/rate-limit-wait counters
        # and per-attempt spans land in the same place as everything else.
        # Without one (simulated engines), the retry family still renders —
        # at zero — so scrapers see a stable schema across backends.
        transport = getattr(llm, "transport", None)
        if isinstance(transport, RetryingTransport):
            transport.bind_observability(tracer=self.tracer, metrics=metrics)
        else:
            metrics.counter(
                "repro_transport_retries_total",
                "Retried attempts by failure reason.",
                labels=("reason",),
            ).inc(0, reason="429")

    def _feature_store_hit_rate(self) -> float:
        store = self._resolver.feature_store
        if store is None:
            return 0.0
        return store.stats().hit_rate

    def _planner_stat(self, name: str) -> int:
        """One routing counter of the resolver's planner (0 before planning)."""
        store = self._resolver.feature_store
        if store is None:
            return 0
        return int(getattr(store.planner.stats(), name))

    def observe_request(
        self, tenant: str | None, status: int, seconds: float
    ) -> None:
        """Record one front-end request into the per-tenant metric families.

        Both HTTP front ends call this once per routed request, so the
        ``repro_service_requests_total{tenant,status}`` counter and the
        per-tenant latency histogram mean the same thing whichever front end
        served the traffic.
        """
        label = tenant if tenant else ANONYMOUS_TENANT
        self._metric_requests.inc(tenant=label, status=str(status))
        self._metric_request_seconds.observe(seconds, tenant=label)

    def authenticate(self, api_key: str | None) -> Tenant | None:
        """Resolve an API key to a tenant (see :meth:`TenantManager.authenticate`).

        Raises:
            UnknownTenant: for a missing key when the config requires one, or
                for a key matching no tenant.
        """
        return self.tenants.authenticate(api_key)

    def overload_retry_after(self) -> float:
        """Backlog-derived ``Retry-After`` for overload (503) responses.

        A full queue drains one micro-batch per flush deadline, so the
        backlog clears in roughly ``queue_depth / max_batch_size`` flushes of
        ``max_wait_seconds`` each.  The estimate is clamped to ``[1,
        cooldown]`` — the breaker's cooldown when gating is configured (the
        longest the service itself ever asks a client to back off), else
        ``DEFAULT_OVERLOAD_RETRY_CAP`` — so a deep backlog never turns into
        an unbounded go-away.
        """
        flushes = -(-self.queue_depth // self.config.max_batch_size)
        estimate = flushes * self.config.max_wait_seconds
        cap = (
            self.breaker.config.cooldown_seconds
            if self.breaker is not None
            else DEFAULT_OVERLOAD_RETRY_CAP
        )
        return min(max(1.0, estimate), max(1.0, cap))

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, config: ServiceConfig | None = None, **kwargs
    ) -> "ResolutionService":
        """Build a service whose session pool is ``dataset``'s train split."""
        return cls(
            config=config,
            demonstrations=list(dataset.splits.train),
            attributes=dataset.attributes,
            **kwargs,
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ResolutionService":
        """Warm the session, warm-start the cache, and start the consumer.

        Idempotent while running.  Returns ``self`` so it chains with the
        constructor.

        Raises:
            ServiceClosed: when restarting a stopped service.
        """
        if self._stopped:
            raise ServiceClosed("service has been stopped; build a new one")
        if self._batcher.running:
            return self
        if self._resolver.pool_size:
            self._resolver.warm()
        if self.config.spill_path is not None:
            self._cache.warm_start(self.config.spill_path, on_vector=self._seed_vector)
        if self._started_at is None:
            self._started_at = self._clock.monotonic()
        self._batcher.start()
        return self

    def stop(self, spill: bool = True) -> None:
        """Drain queued work, stop the consumer, and release resources.

        Queued requests are still flushed before the consumer exits; anything
        that somehow remains is failed with :class:`ServiceClosed`.

        Args:
            spill: write the cache to ``config.spill_path`` (when configured).
        """
        if self._stopped:
            return
        self._stopped = True
        self._batcher.stop()
        for request in self._queue.drain():
            self._fail(request.fingerprint, ServiceClosed("service stopped"))
        # Spill only when this session actually started (and hence
        # warm-started from the file): stopping a never-started service must
        # not truncate a previous session's persisted cache.
        if spill and self.config.spill_path is not None and self._started_at is not None:
            self._drain_pending_vectors()
            store = self._resolver.feature_store
            if store is not None:
                self._cache.spill(
                    self.config.spill_path,
                    vector_lookup=store.get,
                    vector_tag=store.spill_tag,
                )
            else:
                # The schema was never learned this session, so the store was
                # never built: write the still-buffered warm-start vectors
                # back out instead of silently dropping them from the file.
                with self._lock:
                    pending = dict(self._pending_vectors)
                tags = {tag for _, tag in pending.values()}
                tag = tags.pop() if len(tags) == 1 else None
                self._cache.spill(
                    self.config.spill_path,
                    vector_lookup=(
                        (lambda fingerprint: pending.get(fingerprint, (None, None))[0])
                        if tag is not None
                        else None
                    ),
                    vector_tag=tag,
                )
        if self._owns_executor and isinstance(self._executor, ConcurrentExecutor):
            self._executor.shutdown()

    def _seed_vector(
        self, fingerprint: str, vector: list[float], tag: str | None
    ) -> None:
        """Seed the session's feature store with one spilled vector.

        Vectors are skipped silently unless both their provenance tag
        (extractor variant + attribute schema) and their dimensionality match
        the current store — a spill file from a session with a different
        configuration must not poison the store.  The tag check matters even
        when dimensions agree: e.g. the ``lr`` and ``jaccard`` structure-aware
        extractors share a dimension but produce different vectors.

        When the store does not exist yet (attribute schema still unknown),
        the vector is buffered and seeded once it does — otherwise a session
        that learns its schema only after ``start()`` would drop every
        spilled vector and re-spill the file without them.
        """
        store = self._resolver.feature_store
        if store is None:
            with self._lock:
                self._pending_vectors[fingerprint] = (vector, tag)
            return
        if tag != store.spill_tag or len(vector) != store.dimension:
            return
        store.put(fingerprint, vector)

    def _drain_pending_vectors(self) -> None:
        """Seed buffered spill vectors once the feature store exists."""
        if not self._pending_vectors or self._resolver.feature_store is None:
            return
        with self._lock:
            pending, self._pending_vectors = self._pending_vectors, {}
        for fingerprint, (vector, tag) in pending.items():
            self._seed_vector(fingerprint, vector, tag)

    def __enter__(self) -> "ResolutionService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- submission ----------------------------------------------------------

    def submit(
        self, pair: EntityPair, tenant: Tenant | None = None
    ) -> "Future[Resolution]":
        """Submit one pair; returns a future resolving to its resolution.

        Cache hits complete immediately; identical in-flight pairs share one
        pending resolution; everything else passes admission and queues for
        the next micro-batch.

        Args:
            tenant: the submitting tenant (from :meth:`authenticate`); its
                quota bucket is debited one unit *before* any other path —
                the rate limit protects the front end, so even cache hits
                count against it — and its cost budget gates new uncached
                work the way the global ``cost_budget`` does.  ``None``
                submits anonymously (global limits only).

        Raises:
            ServiceClosed: if the service has been stopped.
            TenantQuotaExceeded: if the tenant is over its requests-per-second
                quota.
            TenantBudgetExceeded: if the tenant's cost budget is spent and
                the pair is not cached.
            ServiceDegraded: if the backend breaker is open and the pair is
                neither cached nor already in flight.
            CostBudgetExceeded: if the session cost budget is exhausted and
                the pair is not cached.
            ServiceOverloaded: if the queue stays full past the admission
                timeout.
        """
        if self._stopped:
            raise ServiceClosed("service has been stopped")
        if tenant is not None:
            tenant.admit()
        if self._pending_vectors:
            self._drain_pending_vectors()
        fingerprint = pair_fingerprint(pair)
        cached = self._cache.get(fingerprint)
        if cached is not None:
            future: Future = Future()
            future.set_result(
                Resolution(pair=pair, label=cached.label, answered=cached.answered)
            )
            self._metric_submitted.inc()
            self._metric_resolved.inc()
            return future

        future: Future = Future()
        if self._attach(fingerprint, pair, future, register_if_absent=False):
            return future

        self._admit_new_work(tenant)

        if self._attach(fingerprint, pair, future, register_if_absent=True):
            return future  # lost a race with a concurrent submitter: joined
        request = PendingRequest(
            pair=pair,
            fingerprint=fingerprint,
            future=future,
            enqueued_at=self._clock.monotonic(),
            tenant=tenant.name if tenant is not None else None,
        )
        try:
            self._queue.put(request, timeout=self.config.admission_timeout_seconds)
        except ServiceOverloaded as error:
            self._metric_rejected.inc(reason="overload")
            self._fail(fingerprint, error)  # joined duplicates must not hang
            raise
        except ServiceClosed as error:
            self._fail(fingerprint, error)
            raise
        self._metric_submitted.inc()
        return future

    def _admit_new_work(self, tenant: Tenant | None) -> None:
        """Gate new LLM-bound work: degraded mode, tenant budget, cost budget.

        Cache hits and in-flight joins are free and never reach this gate.
        An open breaker refuses new work up front rather than queueing it
        behind a gated backend; half-open is *not* degraded — probe traffic
        is how the service recovers.
        """
        breaker = self.breaker
        if breaker is not None and breaker.state == STATE_OPEN:
            self._metric_rejected.inc(reason="degraded")
            raise ServiceDegraded(
                "backend circuit breaker is open; only cached and in-flight "
                "pairs are served",
                retry_after=breaker.retry_after,
            )
        if tenant is not None:
            tenant.check_budget()
        budget = self.config.cost_budget
        if budget is not None:
            spent = self._resolver.cost().total_cost
            if spent >= budget:
                self._metric_rejected.inc(reason="budget")
                raise CostBudgetExceeded(
                    f"session cost ${spent:.4f} has reached the budget "
                    f"${budget:.4f}; only cached pairs are served"
                )

    def _deadline(self) -> ContextManager[DeadlineBudget | None]:
        """Ambient deadline scope for one logical unit of LLM-bound work."""
        budget = self.config.deadline_budget_seconds
        if budget is None:
            return nullcontext(None)
        return deadline_scope(DeadlineBudget(budget, clock=self._clock))

    def _attach(
        self,
        fingerprint: str,
        pair: EntityPair,
        future: Future,
        register_if_absent: bool,
    ) -> bool:
        """Join an identical in-flight pair (returns ``True``), or optionally
        register this request as the fingerprint's owner (returns ``False``)."""
        with self._lock:
            waiters = self._inflight.get(fingerprint)
            if waiters is not None:
                waiters.append((pair, future, True))
                self._metric_submitted.inc()
                self._metric_joined.inc()
                return True
            if register_if_absent:
                self._inflight[fingerprint] = [(pair, future, True)]
            return False

    def resolve_many(
        self,
        pairs: Iterable[EntityPair],
        timeout: float | None = 60.0,
        tenant: Tenant | None = None,
    ) -> list[Resolution]:
        """Submit many pairs and block until all are resolved (input order).

        Args:
            timeout: overall deadline in seconds for the whole set
                (``None`` waits indefinitely).
            tenant: submitting tenant, threaded through :meth:`submit`.

        Raises:
            AdmissionError: if any submission is rejected.
            TimeoutError: if the deadline passes before all pairs resolve.
        """
        return self._await_all([self.submit(pair, tenant=tenant) for pair in pairs], timeout)

    def _await_all(self, futures: list[Future], timeout: float | None) -> list:
        """Results of ``futures`` in order, under one overall ``timeout``."""
        deadline = None if timeout is None else self._clock.monotonic() + timeout
        results = []
        for future in futures:
            remaining = None if deadline is None else max(0.0, deadline - self._clock.monotonic())
            results.append(future.result(timeout=remaining))
        return results

    def resolve_bulk(
        self,
        pairs: Iterable[EntityPair],
        shards: int | None = None,
        timeout: float | None = 60.0,
        tenant: Tenant | None = None,
    ) -> list[Resolution]:
        """Resolve a large pair set through the engine-backed bulk path.

        Bulk submissions bypass the micro-batch queue (which is shaped for
        latency, not throughput) and go straight to the shared session in
        deterministic fingerprint-hashed shards — the same content-addressed
        partitioning the :class:`~repro.engine.engine.RunEngine` uses.  No
        shard may exceed ``batcher.batch_size ** 2`` pairs (the resolver's
        own streaming chunk size), and the session lock is released between
        shards, so concurrent latency-path flushes interleave with a long
        bulk resolution instead of starving behind it.

        Free work stays free: the result cache, deduplication within the
        submission, *and* pairs already in flight on the micro-batch path
        all cost zero additional LLM calls — a bulk request joins a pending
        identical pair's resolution rather than paying for it twice.

        Args:
            pairs: the pairs to resolve; resolutions come back in input order.
            shards: minimum shard count; by default one shard per
                ``batcher.batch_size ** 2`` unique uncached pairs (raised
                automatically when more shards are needed to respect the
                per-shard ceiling).
            timeout: seconds to wait for joined in-flight resolutions
                (``None`` waits indefinitely).
            tenant: submitting tenant; its quota bucket is debited one unit
                per pair up front, its budget is re-checked at every shard
                boundary next to the global one, and each resolved shard's
                marginal cost is attributed to it.

        Raises:
            ServiceClosed: if the service has been stopped.
            TenantQuotaExceeded: if the tenant's bucket cannot afford the
                whole submission.
            ServiceDegraded: if uncached work remains while the backend
                breaker is open (cached and joined pairs alone still resolve).
            CostBudgetExceeded: if uncached work remains but the session cost
                budget is exhausted (cached pairs alone still resolve).
            TimeoutError: if a joined in-flight pair does not resolve within
                ``timeout``.
        """
        if self._stopped:
            raise ServiceClosed("service has been stopped")
        pairs = list(pairs)
        if tenant is not None and pairs:
            tenant.admit(len(pairs))
        self._metric_bulk_requests.inc()
        self._metric_bulk_pairs.inc(len(pairs))
        if not pairs:
            return []

        fingerprints = [pair_fingerprint(pair) for pair in pairs]
        resolved: dict[str, Resolution] = {}
        joined: dict[str, Future] = {}
        pending: dict[str, EntityPair] = {}
        for pair, fingerprint in zip(pairs, fingerprints):
            if fingerprint in resolved or fingerprint in joined or fingerprint in pending:
                continue
            # In-flight check before the cache check: a flush caches its
            # results *before* popping them from the in-flight table, so a
            # pair that leaves in-flight between these two lookups is caught
            # by the cache, never re-paid.
            with self._lock:
                waiters = self._inflight.get(fingerprint)
                if waiters is not None:
                    future: Future = Future()
                    waiters.append((pair, future, False))
                    self._metric_joined.inc()
                    joined[fingerprint] = future
                    continue
            cached = self._cache.get(fingerprint)
            if cached is not None:
                resolved[fingerprint] = Resolution(
                    pair=pair, label=cached.label, answered=cached.answered
                )
            else:
                pending.setdefault(fingerprint, pair)
        self._metric_bulk_served.inc(len(pairs) - len(pending), source="cache")

        if pending:
            unique = list(pending.values())
            chunk = self.config.batcher.batch_size**2
            floor = max(1, -(-len(unique) // chunk))
            num_shards = max(shards, floor) if shards is not None else floor
            shard_indices = ShardPlanner(num_shards).plan_pairs(unique)
            populated = [indices for indices in shard_indices if indices]
            for indices in populated:
                # Re-checked per shard, not once per request: a single huge
                # bulk submission may then overshoot the budget by at most
                # one shard, matching the per-submit granularity of the
                # micro-batch path.  Shards resolved before the rejection
                # stay cached, so a retry pays nothing for them.  The same
                # per-shard granularity applies to degraded mode: a breaker
                # that opens mid-bulk stops the run at the next shard
                # boundary with everything before it cached.
                self._admit_new_work(tenant)
                shard_pairs = [unique[index] for index in indices]
                cost_before = self._resolver.cost().total_cost
                with self._resolver_lock, self._deadline():
                    shard_resolutions = self._resolver.resolve(shard_pairs)
                if tenant is not None:
                    tenant.charge(self._resolver.cost().total_cost - cost_before)
                self._metric_bulk_shards.inc()
                self._metric_bulk_served.inc(len(shard_pairs), source="live")
                for pair, resolution in zip(shard_pairs, shard_resolutions):
                    fingerprint = pair_fingerprint(pair)
                    resolved[fingerprint] = resolution
                    # As on the micro-batch path, fallback labels are never
                    # cached — the next request gets a fresh LLM attempt.
                    if resolution.answered:
                        self._cache.put(
                            fingerprint,
                            CachedResult(
                                label=resolution.label, answered=resolution.answered
                            ),
                        )

        resolved.update(zip(joined, self._await_all(list(joined.values()), timeout)))

        resolutions = []
        for pair, fingerprint in zip(pairs, fingerprints):
            source = resolved[fingerprint]
            resolutions.append(
                Resolution(pair=pair, label=source.label, answered=source.answered)
            )
        return resolutions

    # -- flushing ------------------------------------------------------------

    def _flush(self, batch: list[PendingRequest], reason: str) -> None:
        """Resolve one micro-batch and fan results out to every waiter.

        ``reason`` is the micro-batcher's flush trigger; the flush counter
        and the span attribute both record this one value.
        """
        if not batch:
            return
        self._metric_flushes.inc(reason=reason)
        with self.metrics.time(self._metric_flush_seconds):
            with self.tracer.span("service:flush") as scope:
                if self.tracer.enabled:
                    scope.set_attribute("requests", len(batch))
                    scope.set_attribute("reason", reason)
                self._flush_batch(batch)

    def _flush_batch(self, batch: list[PendingRequest]) -> None:
        # First resolutions may establish the attribute schema (and hence the
        # feature store); seed any warm-start vectors that were waiting on it.
        self._drain_pending_vectors()
        # Defensive within-flush dedup: in-flight joining already collapses
        # duplicates, but a representative per fingerprint keeps the pipeline
        # input unique even if a duplicate slips through.
        unique: dict[str, EntityPair] = {}
        owners: dict[str, str] = {}
        for request in batch:
            if request.fingerprint not in unique and request.tenant is not None:
                owners[request.fingerprint] = request.tenant
            unique.setdefault(request.fingerprint, request.pair)
        cost_before = self._resolver.cost().total_cost
        try:
            # One flush is one logical request for deadline purposes: the
            # budget spans the whole resolve, retry backoff included.
            with self._resolver_lock, self._deadline():
                resolutions = self._resolver.resolve(list(unique.values()))
        except Exception as error:  # noqa: BLE001 - failures travel via futures
            for fingerprint in unique:
                self._fail(fingerprint, error)
            return
        # Attribute the flush's marginal cost to the tenants whose requests
        # paid it: each unique pair's *owner* (the request that enqueued it;
        # in-flight joiners ride free, matching the cache/join discipline)
        # is charged an equal share of the flush's cost delta.
        if owners:
            per_pair = (
                self._resolver.cost().total_cost - cost_before
            ) / len(unique)
            if per_pair > 0:
                for fingerprint, tenant_name in owners.items():
                    owner = self.tenants.get(tenant_name)
                    if owner is not None:
                        owner.charge(per_pair)
        for fingerprint, resolution in zip(unique, resolutions):
            # Fallback labels (answered=False) are never cached: the next
            # request for such a pair gets a fresh LLM attempt instead of a
            # permanently memoized guess.
            if resolution.answered:
                self._cache.put(
                    fingerprint,
                    CachedResult(label=resolution.label, answered=resolution.answered),
                )
            with self._lock:
                waiters = self._inflight.pop(fingerprint, [])
            # A waiter may have cancelled its future; setting a result on it
            # would raise and kill the consumer thread.
            waiters = [waiter for waiter in waiters if not waiter[1].done()]
            # Counted before the futures complete, so a caller woken by its
            # result already sees it in stats().
            self._metric_resolved.inc(sum(from_submit for *_, from_submit in waiters))
            for pair, future, _ in waiters:
                future.set_result(
                    Resolution(
                        pair=pair, label=resolution.label, answered=resolution.answered
                    )
                )

    def _fail(self, fingerprint: str, error: Exception) -> None:
        with self._lock:
            waiters = self._inflight.pop(fingerprint, [])
        for _, future, _ in waiters:
            if not future.done():
                future.set_exception(error)

    # -- introspection -------------------------------------------------------

    @property
    def resolver(self) -> Resolver:
        """The shared underlying session (read-only use recommended)."""
        return self._resolver

    @property
    def cache(self) -> ResultCache:
        """The pair-level result cache."""
        return self._cache

    @property
    def running(self) -> bool:
        """Whether the micro-batch consumer is running."""
        return self._batcher.running

    @property
    def ready(self) -> bool:
        """Readiness: running *and* able to accept new LLM-bound work.

        Liveness (:attr:`running`) says the process is healthy; readiness
        additionally requires the backend breaker not to be open, so a load
        balancer can drain a replica whose backend is gated while health
        checks keep passing.  Half-open counts as ready — probe traffic is
        how the replica recovers.
        """
        return self.running and (
            self.breaker is None or self.breaker.state != STATE_OPEN
        )

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the queue."""
        return len(self._queue)

    def stats(self) -> ServiceStats:
        """Return a point-in-time snapshot of the service's counters."""
        if self._pending_vectors:
            self._drain_pending_vectors()
        resolved = int(self._metric_resolved.value())
        rejected = self._metric_rejected
        served = self._metric_bulk_served
        engine = EngineStats(
            bulk_requests=int(self._metric_bulk_requests.value()),
            bulk_pairs=int(self._metric_bulk_pairs.value()),
            shards_resolved=int(self._metric_bulk_shards.value()),
            pairs_from_cache=int(served.value(source="cache")),
            pairs_resolved=int(served.value(source="live")),
        )
        uptime = (
            self._clock.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        store = self._resolver.feature_store
        llm = self._resolver.llm
        llm_engine = llm.describe() if isinstance(llm, EngineBackend) else None
        return ServiceStats(
            submitted=int(self._metric_submitted.value()),
            resolved=resolved,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            cache_size=len(self._cache),
            inflight_joined=int(self._metric_joined.value()),
            rejected_overload=int(rejected.value(reason="overload")),
            rejected_budget=int(rejected.value(reason="budget")),
            rejected_degraded=int(rejected.value(reason="degraded")),
            queue_depth=self.queue_depth,
            flushes=int(sum(value for _, value in self._metric_flushes.samples())),
            llm_calls=self._resolver.usage.num_calls,
            pool_size=self._resolver.pool_size,
            num_labeled=self._resolver.num_labeled,
            cost=self._resolver.cost(),
            engine=engine,
            llm_engine=llm_engine,
            feature_store=store.stats() if store is not None else None,
            uptime_seconds=uptime,
            throughput_pairs_per_second=(resolved / uptime if uptime > 0 else 0.0),
            breaker=self.breaker.stats() if self.breaker is not None else None,
            tenants=self.tenants.stats() if len(self.tenants) else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResolutionService(max_batch_size={self.config.max_batch_size}, "
            f"queue_depth={self.queue_depth}, cache_size={len(self._cache)}, "
            f"running={self.running})"
        )
