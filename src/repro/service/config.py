"""Configuration of the resolution service layer.

A :class:`ServiceConfig` wraps one :class:`~repro.core.config.BatcherConfig`
(the design-space point the service resolves with) and adds the serving knobs:
micro-batch shape, queue bounds, worker pool size, result-cache capacity and
the cost-aware admission budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.core.config import BatcherConfig
from repro.resilience.breaker import BreakerConfig
from repro.service.tenants import TenantConfig

#: Default number of pairs collected into one micro-batch flush.
DEFAULT_MAX_BATCH_SIZE = 32

#: Default micro-batch deadline in seconds (flush even when not full).
DEFAULT_MAX_WAIT_SECONDS = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer configuration around a :class:`BatcherConfig`.

    Attributes:
        batcher: the design-space point used to resolve flushed micro-batches
            (its ``batch_size`` still governs questions per *prompt*; a flush
            of ``max_batch_size`` pairs is split into prompts by the pipeline).
        max_batch_size: pairs per micro-batch flush; a flush is triggered as
            soon as this many requests are queued.
        max_wait_seconds: micro-batch deadline; a partial batch is flushed
            once the oldest queued request has waited this long.  ``0`` flushes
            whatever is immediately available.
        queue_capacity: bound of the request queue; producers hitting a full
            queue block (backpressure) and are rejected after
            ``admission_timeout_seconds``.
        admission_timeout_seconds: how long a producer may block on a full
            queue before :class:`~repro.service.service.ServiceOverloaded` is
            raised.  A producer on a thread running an asyncio event loop
            never blocks: it gets ``ServiceOverloaded`` at once.  HTTP
            ``POST /resolve`` bodies up to 8 KiB are admitted on the front
            end's loop, so they get 503 at once when the queue is full.
        num_workers: LLM calls in flight across the service: the size of the
            session's dispatch pool, shared by every flush and bulk chunk
            (1 = serial dispatch).  It also sets how many micro-batch
            flushes are in flight: twice the number of full flushes whose
            prompts the pool runs at once, at least 2
            (:func:`~repro.service.service.max_flushes_in_flight`).  The
            default 8 workers run the 4 prompts (32 pairs / ``batch_size``
            8) of 2 flushes at once, so 4 flushes are in flight.
        cache_capacity: maximum number of entries of the pair-level result
            cache (LRU eviction).
        spill_path: optional JSONL file the cache is warm-started from at
            ``start()`` and spilled to at ``stop()``; ``None`` disables
            persistence.
        cost_budget: optional session budget in dollars; once the session's
            cumulative cost (API + labeling) reaches it, new *uncached* work is
            rejected with :class:`~repro.service.service.CostBudgetExceeded`.
            Cache hits are always served — a budget-exhausted service degrades
            to a cache, it does not go dark.  Admission checks *recorded*
            cost, so the budget can be overshot by at most the cost of the
            requests already queued or in flight when it is crossed (bounded
            by ``queue_capacity`` plus the flushes in flight times
            ``max_batch_size`` pairs); size the budget with that headroom in
            mind.
        breaker: optional :class:`~repro.resilience.BreakerConfig` enabling
            the circuit breaker around the LLM backend.  When the breaker is
            open the service serves cache hits and in-flight joins but
            refuses new LLM-bound work with
            :class:`~repro.service.service.ServiceDegraded` (HTTP 503 +
            ``Retry-After``); ``None`` disables availability gating.
        deadline_budget_seconds: optional total wall-clock budget per flush
            (threaded down through the retry ladder as the ambient
            :func:`~repro.resilience.current_deadline`); ``None`` disables
            deadline budgets.  It opens when the flush is planned, so it
            also covers the time the flush's prompts wait in the pool behind
            the wave of flushes ahead of it.
        tenants: declared serving tenants
            (:class:`~repro.service.tenants.TenantConfig`): API keys mapping
            to per-tenant requests-per-second quotas and cost budgets.  Empty
            means single-tenant operation — every request is anonymous and
            only the global limits apply.
        require_api_key: refuse keyless requests with
            :class:`~repro.service.tenants.UnknownTenant` (HTTP 401) instead
            of serving them anonymously; requires at least one tenant.
    """

    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    max_wait_seconds: float = DEFAULT_MAX_WAIT_SECONDS
    queue_capacity: int = 256
    admission_timeout_seconds: float = 5.0
    num_workers: int = 8
    cache_capacity: int = 4096
    spill_path: str | None = None
    cost_budget: float | None = None
    breaker: BreakerConfig | None = None
    deadline_budget_seconds: float | None = None
    tenants: tuple[TenantConfig, ...] = ()
    require_api_key: bool = False

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_seconds < 0:
            raise ValueError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.admission_timeout_seconds < 0:
            raise ValueError(
                "admission_timeout_seconds must be >= 0, "
                f"got {self.admission_timeout_seconds}"
            )
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if self.cost_budget is not None and self.cost_budget <= 0:
            raise ValueError(f"cost_budget must be > 0, got {self.cost_budget}")
        if (
            self.deadline_budget_seconds is not None
            and self.deadline_budget_seconds <= 0
        ):
            raise ValueError(
                "deadline_budget_seconds must be > 0, "
                f"got {self.deadline_budget_seconds}"
            )
        # Tuple-ify (so list literals work) and fail fast on collisions the
        # TenantManager would otherwise reject only at service construction.
        object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        keys = [tenant.api_key for tenant in self.tenants]
        if len(set(keys)) != len(keys):
            raise ValueError("tenants must have distinct API keys")
        if self.require_api_key and not self.tenants:
            raise ValueError("require_api_key needs at least one configured tenant")

    def with_overrides(self, **overrides: Any) -> "ServiceConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """Return a plain-dict snapshot (``batcher`` nested as its own dict)."""
        return {
            "batcher": self.batcher.to_dict(),
            "max_batch_size": self.max_batch_size,
            "max_wait_seconds": self.max_wait_seconds,
            "queue_capacity": self.queue_capacity,
            "admission_timeout_seconds": self.admission_timeout_seconds,
            "num_workers": self.num_workers,
            "cache_capacity": self.cache_capacity,
            "spill_path": self.spill_path,
            "cost_budget": self.cost_budget,
            "breaker": self.breaker.to_dict() if self.breaker is not None else None,
            "deadline_budget_seconds": self.deadline_budget_seconds,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "require_api_key": self.require_api_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        """Rebuild a config from a :meth:`to_dict` snapshot.

        Raises:
            ValueError: for unknown fields (and, via the nested configs'
                ``__post_init__``, for invalid field values).
        """
        known = {config_field.name for config_field in fields(cls)}
        snapshot = dict(data)
        unknown = set(snapshot) - known
        if unknown:
            raise ValueError(
                f"unknown service config fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        batcher = snapshot.pop("batcher", None)
        if isinstance(batcher, Mapping):
            batcher = BatcherConfig.from_dict(batcher)
        if batcher is not None:
            snapshot["batcher"] = batcher
        breaker = snapshot.get("breaker")
        if isinstance(breaker, Mapping):
            snapshot["breaker"] = BreakerConfig.from_dict(breaker)
        tenants = snapshot.get("tenants")
        if tenants is not None:
            snapshot["tenants"] = tuple(
                TenantConfig.from_dict(entry) if isinstance(entry, Mapping) else entry
                for entry in tenants
            )
        return cls(**snapshot)
