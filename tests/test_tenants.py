"""Tests for the multi-tenant admission layer (`repro.service.tenants`)."""

import pytest

from repro.core.config import BatcherConfig
from repro.engines.faults import FakeClock
from repro.service import (
    ResolutionService,
    ServiceConfig,
    TenantConfig,
)
from repro.service.tenants import (
    ANONYMOUS_TENANT,
    Tenant,
    TenantBudgetExceeded,
    TenantManager,
    TenantQuotaExceeded,
    UnknownTenant,
)


class TestTenantConfig:
    def test_roundtrip(self):
        config = TenantConfig(
            name="acme", api_key="k", requests_per_second=5.0, burst=10.0,
            cost_budget=1.5,
        )
        assert TenantConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown tenant config fields"):
            TenantConfig.from_dict({"name": "a", "api_key": "k", "tier": "gold"})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"api_key": ""},
            {"requests_per_second": 0.0},
            {"requests_per_second": -1.0},
            {"burst": 0.5},
            {"cost_budget": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        base = {"name": "a", "api_key": "k"}
        with pytest.raises(ValueError):
            TenantConfig(**{**base, **kwargs})


class TestTenantQuota:
    def test_burst_then_reject_then_refill(self):
        clock = FakeClock()
        tenant = Tenant(
            TenantConfig(name="t", api_key="k", requests_per_second=2.0, burst=3.0),
            clock=clock,
        )
        for _ in range(3):  # the full burst is admitted back to back
            tenant.admit()
        with pytest.raises(TenantQuotaExceeded) as excinfo:
            tenant.admit()
        assert excinfo.value.tenant == "t"
        assert excinfo.value.retry_after == pytest.approx(0.5)  # 1 unit at 2/s
        clock.advance(0.5)
        tenant.admit()  # the bucket genuinely refilled

    def test_rejection_does_not_debit_the_bucket(self):
        # A greedy tenant hammering the endpoint must not push its bucket
        # into debt: after the quota window passes, one request is admitted
        # no matter how many were refused meanwhile.
        clock = FakeClock()
        tenant = Tenant(
            TenantConfig(name="t", api_key="k", requests_per_second=1.0, burst=1.0),
            clock=clock,
        )
        tenant.admit()
        for _ in range(50):
            with pytest.raises(TenantQuotaExceeded):
                tenant.admit()
        clock.advance(1.0)
        tenant.admit()  # refused attempts left no debt behind

    def test_greedy_tenant_cannot_starve_a_quota_respecting_one(self):
        # Over 20 virtual seconds one tenant fires 10x its quota in a burst
        # each second while another submits exactly its quota, spread out.
        seconds, quota, greed = 20, 5, 50
        clock = FakeClock()
        manager = TenantManager(
            tuple(
                TenantConfig(
                    name=name, api_key=f"k-{name}", requests_per_second=quota, burst=quota
                )
                for name in ("greedy", "respectful")
            ),
            clock=clock,
        )
        greedy = manager.authenticate("k-greedy")
        respectful = manager.authenticate("k-respectful")
        respectful_rejections = 0
        for _ in range(seconds):
            for _ in range(greed):
                try:
                    greedy.admit()
                except TenantQuotaExceeded:
                    pass
            for _ in range(quota):
                try:
                    respectful.admit()
                except TenantQuotaExceeded:
                    respectful_rejections += 1
                clock.advance(1.0 / quota)
        assert respectful_rejections == 0
        assert respectful.stats()["admitted"] == seconds * quota
        # The greedy tenant gets its burst up front plus its refill over the
        # window, not one request more.
        assert greedy.stats()["admitted"] <= quota + seconds * quota
        assert greedy.stats()["rejected_quota"] >= 1

    def test_multi_unit_admission(self):
        clock = FakeClock()
        tenant = Tenant(
            TenantConfig(name="t", api_key="k", requests_per_second=1.0, burst=4.0),
            clock=clock,
        )
        tenant.admit(units=4)
        with pytest.raises(TenantQuotaExceeded):
            tenant.admit(units=1)

    def test_no_quota_admits_everything(self):
        tenant = Tenant(TenantConfig(name="t", api_key="k"))
        for _ in range(1000):
            tenant.admit()
        assert tenant.stats()["admitted"] == 1000


class TestTenantBudget:
    def test_budget_blocks_after_spend_and_counts_rejections(self):
        tenant = Tenant(TenantConfig(name="t", api_key="k", cost_budget=0.10))
        tenant.check_budget()
        tenant.charge(0.06)
        tenant.check_budget()  # under budget: still fine
        tenant.charge(0.05)
        with pytest.raises(TenantBudgetExceeded) as excinfo:
            tenant.check_budget()
        assert excinfo.value.tenant == "t"
        stats = tenant.stats()
        assert stats["cost_spent"] == pytest.approx(0.11)
        assert stats["rejected_budget"] == 1

    def test_no_budget_never_blocks(self):
        tenant = Tenant(TenantConfig(name="t", api_key="k"))
        tenant.charge(1e9)
        tenant.check_budget()

    def test_nonpositive_charges_ignored(self):
        tenant = Tenant(TenantConfig(name="t", api_key="k", cost_budget=1.0))
        tenant.charge(0.0)
        tenant.charge(-5.0)
        assert tenant.spent == 0.0


class TestTenantManager:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant name"):
            TenantManager(
                (
                    TenantConfig(name="a", api_key="k1"),
                    TenantConfig(name="a", api_key="k2"),
                )
            )

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="share an API key"):
            TenantManager(
                (
                    TenantConfig(name="a", api_key="k"),
                    TenantConfig(name="b", api_key="k"),
                )
            )

    def test_require_api_key_needs_tenants(self):
        with pytest.raises(ValueError, match="at least one configured tenant"):
            TenantManager((), require_api_key=True)

    def test_authentication_paths(self):
        manager = TenantManager((TenantConfig(name="a", api_key="k"),))
        assert manager.authenticate("k").name == "a"
        assert manager.authenticate(None) is None  # anonymous allowed
        assert manager.authenticate("") is None
        with pytest.raises(UnknownTenant):
            manager.authenticate("wrong")  # a wrong key is always an error

    def test_missing_key_refused_when_required(self):
        manager = TenantManager(
            (TenantConfig(name="a", api_key="k"),), require_api_key=True
        )
        with pytest.raises(UnknownTenant):
            manager.authenticate(None)

    def test_stats_and_names(self):
        manager = TenantManager(
            (
                TenantConfig(name="a", api_key="k1"),
                TenantConfig(name="b", api_key="k2"),
            )
        )
        assert manager.names == ("a", "b")
        assert len(manager) == 2
        assert set(manager.stats()) == {"a", "b"}
        assert manager.get("a").name == "a"
        assert manager.get("zzz") is None


class TestServiceConfigTenants:
    def test_roundtrip_with_tenants(self):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            tenants=(
                TenantConfig(name="a", api_key="k1", requests_per_second=2.0),
            ),
            require_api_key=True,
        )
        rebuilt = ServiceConfig.from_dict(config.to_dict())
        assert rebuilt.tenants == config.tenants
        assert rebuilt.require_api_key is True

    def test_require_api_key_without_tenants_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(batcher=BatcherConfig(seed=1), require_api_key=True)

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(
                batcher=BatcherConfig(seed=1),
                tenants=(
                    TenantConfig(name="a", api_key="k1"),
                    TenantConfig(name="a", api_key="k2"),
                ),
            )


@pytest.fixture()
def tenant_service(beer_dataset):
    config = ServiceConfig(
        batcher=BatcherConfig(seed=1),
        max_batch_size=8,
        max_wait_seconds=0.02,
        tenants=(
            TenantConfig(name="acme", api_key="k-acme"),
            TenantConfig(name="globex", api_key="k-globex", cost_budget=1e-9),
        ),
    )
    service = ResolutionService.from_dataset(beer_dataset, config).start()
    yield service
    service.stop()


class TestServiceIntegration:
    def test_live_resolution_cost_attributed_to_owner(
        self, tenant_service, beer_dataset
    ):
        tenant = tenant_service.authenticate("k-acme")
        pairs = [pair.without_label() for pair in list(beer_dataset.splits.test)[:4]]
        resolutions = tenant_service.resolve_many(pairs, tenant=tenant)
        assert len(resolutions) == len(pairs)
        stats = tenant_service.stats()
        assert stats.tenants["acme"]["admitted"] == len(pairs)
        assert stats.tenants["acme"]["cost_spent"] > 0.0
        # Cost attribution conserves spend: the tenant paid (approximately)
        # what the resolver recorded for those flushes.
        assert stats.tenants["acme"]["cost_spent"] == pytest.approx(
            stats.cost.total_cost, rel=1e-6
        )

    def test_budget_tenant_degrades_to_cache(self, tenant_service, beer_dataset):
        greedy = tenant_service.authenticate("k-globex")
        pair = list(beer_dataset.splits.test)[10].without_label()
        [first] = tenant_service.resolve_many([pair], tenant=greedy)
        # The first (uncached) resolution spent the microscopic budget...
        other = list(beer_dataset.splits.test)[11].without_label()
        with pytest.raises(TenantBudgetExceeded):
            tenant_service.resolve_many([other], tenant=greedy)
        # ...but the cached pair still resolves, to the same label.
        [again] = tenant_service.resolve_many([pair], tenant=greedy)
        assert again.label == first.label
        assert tenant_service.stats().tenants["globex"]["rejected_budget"] >= 1

    def test_bulk_path_charges_tenant(self, tenant_service, beer_dataset):
        tenant = tenant_service.authenticate("k-acme")
        pairs = [
            pair.without_label() for pair in list(beer_dataset.splits.test)[20:24]
        ]
        resolutions = tenant_service.resolve_bulk(pairs, tenant=tenant)
        assert len(resolutions) == len(pairs)
        stats = tenant_service.stats()
        assert stats.tenants["acme"]["admitted"] >= len(pairs)
        assert stats.tenants["acme"]["cost_spent"] > 0.0

    def test_anonymous_traffic_untouched_by_tenant_limits(
        self, tenant_service, beer_dataset
    ):
        pair = list(beer_dataset.splits.test)[30].without_label()
        [resolution] = tenant_service.resolve_many([pair])  # no tenant
        assert resolution.label in (0, 1)

    def test_per_tenant_metric_families_pre_seeded(self, tenant_service):
        exposition = tenant_service.metrics.render()
        for name in ("acme", "globex", ANONYMOUS_TENANT):
            assert (
                f'repro_service_requests_total{{tenant="{name}",status="200"}}'
                in exposition
            )
