"""Tests for the service's HTTP routes and the repro-serve CLI plumbing.

The routes, error mapping and tenant layer live in ``ServiceRouter``; these
tests drive them over real HTTP through the asyncio front end.  Transport
behaviour (keep-alive, framing, read deadlines, drain) is covered in
``test_service_aio.py``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import BatcherConfig
from repro.service import ResolutionService, ServiceConfig, TenantConfig
from repro.service.aio import AsyncServiceHTTPServer
from repro.service.cli import main as serve_main
from repro.service.http import MAX_BODY_BYTES, BadRequest, pairs_from_json


@pytest.fixture(scope="module")
def http_server(beer_dataset):
    config = ServiceConfig(
        batcher=BatcherConfig(seed=1), max_batch_size=8, max_wait_seconds=0.02
    )
    service = ResolutionService.from_dataset(beer_dataset, config).start()
    server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
    yield server
    server.shutdown()
    service.stop()


def _get(server, path):
    with urllib.request.urlopen(server.address + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    return _post_raw(server, path, json.dumps(payload).encode("utf-8"))


def _post_raw(server, path, body, headers=None):
    request = urllib.request.Request(
        server.address + path,
        data=body,
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_resolve_without_pair_id_gets_generated_one(self, http_server):
        status, payload = _post(
            http_server,
            "/resolve",
            {"pairs": [{"left": {"name": "pale ale"}, "right": {"name": "Pale Ale"}}]},
        )
        assert status == 200
        assert payload["resolutions"][0]["pair_id"].startswith("http-")

    def test_stats_reflects_resolved_requests(self, http_server):
        status, payload = _get(http_server, "/stats")
        assert status == 200
        assert payload["resolved"] >= 1
        assert payload["cost"]["total_cost"] >= 0.0
        assert "cache_hit_rate" in payload

    def test_malformed_body_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(http_server, "/resolve", {"not-pairs": []})
        assert excinfo.value.code == 400
        assert "pairs" in json.loads(excinfo.value.read())["error"]

    def test_non_string_attribute_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                http_server,
                "/resolve",
                {"pairs": [{"left": {"abv": 5.2}, "right": {"abv": "5.2"}}]},
            )
        assert excinfo.value.code == 400


class TestErrorPaths:
    """Exhaustive HTTP error mapping: 400 / 429 / 503 paths."""

    def test_invalid_json_body_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(http_server, "/resolve", b'{"pairs": [unterminated')
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_non_utf8_body_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(http_server, "/resolve", b'\xff\xfe{"pairs": []}')
        assert excinfo.value.code == 400

    def test_oversized_payload_400(self, http_server):
        padding = "x" * (MAX_BODY_BYTES + 1)
        body = json.dumps({"pairs": [], "padding": padding}).encode("utf-8")
        assert len(body) > MAX_BODY_BYTES
        try:
            _post_raw(http_server, "/resolve", body)
            raise AssertionError("oversized payload must not succeed")
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "bytes" in json.loads(error.read())["error"]
        except (urllib.error.URLError, ConnectionError):
            # Equally valid rejection: the server answered 400 and closed the
            # connection before the client finished streaming the huge body.
            pass

    def test_empty_body_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(http_server, "/resolve", b"")
        assert excinfo.value.code == 400

    def test_invalid_content_length_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(
                http_server,
                "/resolve",
                b'{"pairs": []}',
                headers={"Content-Length": "not-a-number"},
            )
        assert excinfo.value.code == 400

    def test_post_to_unknown_path_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(http_server, "/resolve-all", {"pairs": []})
        assert excinfo.value.code == 404

    def test_overload_503_with_retry_after(self, beer_dataset):
        # A never-started consumer with a one-slot queue: the first submission
        # occupies the slot, the HTTP request then hits backpressure.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            queue_capacity=1,
            admission_timeout_seconds=0.01,
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        try:
            blocker = beer_dataset.splits.test[0].without_label()
            service.submit(blocker)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    server,
                    "/resolve",
                    {"pairs": [{"left": {"name": "a"}, "right": {"name": "b"}}]},
                )
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
        finally:
            server.shutdown()
            service.stop()

    def test_cost_budget_rejection_429(self, beer_dataset):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=8,
            max_wait_seconds=0.02,
            cost_budget=1e-9,
        )
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        try:
            first = beer_dataset.splits.test[0]
            payload = {
                "pairs": [
                    {"left": dict(first.left.values), "right": dict(first.right.values)}
                ]
            }
            # Admission checks recorded cost: the first request is admitted
            # and exhausts the (tiny) budget...
            status, _ = _post(server, "/resolve", payload)
            assert status == 200
            # ...so a new, uncached pair is now rejected with 429.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    server,
                    "/resolve",
                    {"pairs": [{"left": {"name": "brand new"}, "right": {"name": "pair"}}]},
                )
            assert excinfo.value.code == 429
            assert "budget" in json.loads(excinfo.value.read())["error"]
            # The exhausted service still serves cached contents.
            status, _ = _post(server, "/resolve", payload)
            assert status == 200
        finally:
            server.shutdown()
            service.stop()

    def test_stopped_service_503(self, beer_dataset):
        config = ServiceConfig(batcher=BatcherConfig(seed=1))
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        try:
            service.stop()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    server,
                    "/resolve",
                    {"pairs": [{"left": {"name": "x"}, "right": {"name": "y"}}]},
                )
            assert excinfo.value.code == 503
        finally:
            server.shutdown()


class TestHardening:
    """HEAD probes and the derived backpressure Retry-After."""

    @pytest.mark.parametrize("path", ["/healthz", "/readyz", "/stats", "/metrics"])
    def test_head_mirrors_get_without_body(self, http_server, path):
        request = urllib.request.Request(http_server.address + path, method="HEAD")
        with urllib.request.urlopen(
            http_server.address + path, timeout=10
        ) as get, urllib.request.urlopen(request, timeout=10) as head:
            assert head.status == get.status == 200
            assert head.read() == b""
            # HEAD advertises the length of the body a GET would have carried.
            assert int(head.headers["Content-Length"]) > 0
            assert head.headers["Content-Type"] == get.headers["Content-Type"]
            if path in ("/healthz", "/readyz"):  # bodies stable between calls
                assert int(head.headers["Content-Length"]) == len(get.read())

    def test_head_unknown_path_404(self, http_server):
        request = urllib.request.Request(http_server.address + "/nope", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        assert excinfo.value.read() == b""

    def test_backpressure_retry_after_derived_from_backlog(self, beer_dataset):
        # Eight queued pairs at one pair per 2s flush -> the client is told to
        # come back in ~16s, not a flat second.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=1,
            max_wait_seconds=2.0,
            queue_capacity=8,
            admission_timeout_seconds=0.01,
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        try:
            for pair in list(beer_dataset.splits.test)[:8]:
                service.submit(pair.without_label())
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    server,
                    "/resolve",
                    {"pairs": [{"left": {"name": "a"}, "right": {"name": "b"}}]},
                )
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "16"
        finally:
            server.shutdown()
            service.stop()


class TestTenantsOverHTTP:
    """The X-API-Key tenant layer exercised through the HTTP front end."""

    @pytest.fixture()
    def tenant_server(self, beer_dataset):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=8,
            max_wait_seconds=0.02,
            tenants=(
                TenantConfig(name="acme", api_key="k-acme"),
                TenantConfig(
                    name="throttled",
                    api_key="k-throttled",
                    requests_per_second=0.001,
                    burst=1.0,
                ),
                TenantConfig(name="broke", api_key="k-broke", cost_budget=1e-9),
            ),
            require_api_key=True,
        )
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        yield server
        server.shutdown()
        service.stop()

    PAYLOAD = {"pairs": [{"left": {"name": "lager"}, "right": {"name": "Lager"}}]}

    def test_valid_key_resolves(self, tenant_server):
        status, body = _post_raw(
            tenant_server,
            "/resolve",
            json.dumps(self.PAYLOAD).encode(),
            headers={"X-API-Key": "k-acme"},
        )
        assert status == 200
        assert len(body["resolutions"]) == 1

    def test_missing_key_401_when_required(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(tenant_server, "/resolve", self.PAYLOAD)
        assert excinfo.value.code == 401

    def test_wrong_key_401(self, tenant_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(
                tenant_server,
                "/resolve",
                json.dumps(self.PAYLOAD).encode(),
                headers={"X-API-Key": "k-wrong"},
            )
        assert excinfo.value.code == 401

    def test_quota_exhausted_429_with_retry_after(self, tenant_server):
        status, _ = _post_raw(
            tenant_server,
            "/resolve",
            json.dumps(self.PAYLOAD).encode(),
            headers={"X-API-Key": "k-throttled"},
        )
        assert status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(
                tenant_server,
                "/resolve",
                json.dumps(self.PAYLOAD).encode(),
                headers={"X-API-Key": "k-throttled"},
            )
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        assert "quota" in json.loads(excinfo.value.read())["error"]

    def test_tenant_budget_exhausted_429_but_cache_still_served(self, tenant_server):
        # First (uncached) request is admitted and spends the tiny budget...
        status, _ = _post_raw(
            tenant_server,
            "/resolve",
            json.dumps(self.PAYLOAD).encode(),
            headers={"X-API-Key": "k-broke"},
        )
        assert status == 200
        # ...a new uncached pair is rejected 429...
        fresh = {"pairs": [{"left": {"name": "saison"}, "right": {"name": "Gose"}}]}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(
                tenant_server,
                "/resolve",
                json.dumps(fresh).encode(),
                headers={"X-API-Key": "k-broke"},
            )
        assert excinfo.value.code == 429
        assert "budget" in json.loads(excinfo.value.read())["error"]
        # ...but the cached pair still resolves (degrade-to-cache).
        status, _ = _post_raw(
            tenant_server,
            "/resolve",
            json.dumps(self.PAYLOAD).encode(),
            headers={"X-API-Key": "k-broke"},
        )
        assert status == 200

    def test_stats_and_metrics_carry_tenant_breakdown(self, tenant_server):
        _post_raw(
            tenant_server,
            "/resolve",
            json.dumps(self.PAYLOAD).encode(),
            headers={"X-API-Key": "k-acme"},
        )
        status, stats = _get(tenant_server, "/stats")
        assert status == 200
        assert "acme" in stats["tenants"]
        assert stats["tenants"]["acme"]["admitted"] >= 1
        with urllib.request.urlopen(
            tenant_server.address + "/metrics", timeout=10
        ) as response:
            exposition = response.read().decode()
        assert 'repro_service_requests_total{tenant="acme",status="200"}' in exposition


class TestBulkEndpoint:
    def test_bulk_roundtrip(self, http_server, beer_dataset):
        """A leftover ``"shards"`` key from older clients is ignored."""
        pairs = [pair.without_label() for pair in list(beer_dataset.splits.test)[:6]]
        payload = {
            "pairs": [
                {
                    "pair_id": pair.pair_id,
                    "left": dict(pair.left.values),
                    "right": dict(pair.right.values),
                }
                for pair in pairs
            ],
            "shards": 2,
        }
        status, body = _post(http_server, "/bulk", payload)
        assert status == 200
        assert [entry["pair_id"] for entry in body["resolutions"]] == [
            pair.pair_id for pair in pairs
        ]

    def test_bulk_without_shards_field(self, http_server):
        status, body = _post(
            http_server,
            "/bulk",
            {"pairs": [{"left": {"name": "stout"}, "right": {"name": "Stout"}}]},
        )
        assert status == 200
        assert len(body["resolutions"]) == 1

    def test_bulk_ticks_engine_counters_in_stats(self, http_server):
        _post(
            http_server,
            "/bulk",
            {"pairs": [{"left": {"name": "porter"}, "right": {"name": "Porter"}}]},
        )
        status, payload = _get(http_server, "/stats")
        assert status == 200
        assert payload["engine"]["bulk_requests"] >= 1
        assert payload["engine"]["bulk_pairs"] >= 1


class TestPayloadParsing:
    def test_rejects_non_object_entries(self):
        with pytest.raises(BadRequest, match="must be an object"):
            pairs_from_json({"pairs": ["nope"]})

    def test_rejects_missing_side(self):
        with pytest.raises(BadRequest, match="'right'"):
            pairs_from_json({"pairs": [{"left": {"name": "x"}}]})

    def test_accepts_null_values(self):
        [pair] = pairs_from_json(
            {"pairs": [{"left": {"name": "x", "abv": None}, "right": {"name": "y"}}]}
        )
        assert pair.left.value("abv") is None
        assert pair.right.value("name") == "y"


class TestSelfTestCLI:
    def test_self_test_exits_zero_and_reports_ok(self, capsys):
        assert serve_main(["--self-test"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["requests"] == 100
        assert all(report["checks"].values())
        assert report["first_pass"]["llm_calls"] < report["requests"]
