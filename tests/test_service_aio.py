"""Tests for the asyncio HTTP front end (`repro.service.aio`).

Routing semantics live in ``ServiceRouter`` (see ``test_service_http.py``),
so these tests focus on what the transport owns: HTTP/1.1 keep-alive, strict
request framing, per-request read deadlines (slowloris), connection
bounding, graceful drain, and byte-identity of wire and routed bodies.
"""

import asyncio
import http.client
import json
import random
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import BatcherConfig
from repro.service import ResolutionService, ServiceConfig
from repro.service.aio import AsyncServiceHTTPServer
from repro.service.http import RouteResult
from repro.service.service import max_flushes_in_flight
from repro.service.wire import (
    HEAD_END,
    blank_prefix,
    body_error,
    is_head_request,
    parse_head,
)


@pytest.fixture(scope="module")
def aio_service(beer_dataset):
    config = ServiceConfig(
        batcher=BatcherConfig(seed=1), max_batch_size=8, max_wait_seconds=0.02
    )
    service = ResolutionService.from_dataset(beer_dataset, config).start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def aio_server(aio_service):
    server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
    yield server
    server.shutdown()


def _get(server, path):
    with urllib.request.urlopen(server.address + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload, headers=None):
    request = urllib.request.Request(
        server.address + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _host_port(server):
    base = server.address.removeprefix("http://")
    host, _, port = base.rpartition(":")
    return host, int(port)


#: A well-formed request pipelined after the one under test; its answer is
#: the only response that may follow a keep-alive first response.
FOLLOW_UP = b"GET /healthz HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n"

RESOLVE_BODY = json.dumps(
    {
        "pairs": [
            {"pair_id": "framing", "left": {"name": "ale"}, "right": {"name": "ALE"}}
        ]
    }
).encode("utf-8")

_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]+")


def _exchange(server, data):
    """Send ``data``, half-close, and read until the server closes.

    Returns the raw reply and the seconds the exchange took.  The client
    socket times out after ``read_timeout`` plus a second, so an input that
    parks the server fails the test instead of hanging it.
    """
    started = time.monotonic()
    chunks = []
    with socket.create_connection(
        _host_port(server), timeout=server.read_timeout + 1.0
    ) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks), time.monotonic() - started


def _responses(raw, head_first=False):
    """Split a reply stream into ``(status, headers, body)`` responses.

    Strict: every response must be a complete HTTP/1.1 message framed by its
    ``Content-Length`` (none carried for a ``HEAD`` answer), with nothing
    left over.
    """
    responses = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head {head!r}"
        status_line, *lines = head.split(b"\r\n")
        match = _STATUS_LINE.fullmatch(status_line)
        assert match, f"malformed status line {status_line!r}"
        headers = {}
        for line in lines:
            name, sep, value = line.partition(b": ")
            assert sep, f"malformed response header {line!r}"
            headers[name.decode("latin-1").lower()] = value.decode("latin-1")
        length = int(headers["content-length"])
        if head_first and not responses:
            length = 0
        assert len(raw) >= length, "response body shorter than its length"
        responses.append((int(match.group(1)), headers, raw[:length]))
        raw = raw[length:]
    return responses


def _assert_one_response_then_close(raw, status, head_first=False):
    [(got, headers, _)] = _responses(raw, head_first)
    assert got == status
    assert headers["connection"] == "close"


def _assert_keep_alive_then_follow_up(raw, status, head_first=False):
    first, follow_up = _responses(raw, head_first)
    assert first[0] == status and first[1]["connection"] == "keep-alive"
    assert follow_up[0] == 200 and follow_up[1]["connection"] == "close"
    assert json.loads(follow_up[2])["status"] == "ok"


@pytest.fixture(scope="module")
def framing_server(aio_service):
    server = AsyncServiceHTTPServer(
        aio_service, port=0, read_timeout=2.0, idle_timeout=2.0
    ).serve_in_background()
    yield server
    server.shutdown()


class TestRoutes:
    def test_healthz(self, aio_server):
        status, payload = _get(aio_server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["live"] is True and payload["running"] is True
        assert payload["pool_size"] > 0

    def test_resolve_roundtrip(self, aio_server, beer_dataset):
        pair = beer_dataset.splits.test[0]
        status, payload = _post(
            aio_server,
            "/resolve",
            {
                "pairs": [
                    {
                        "pair_id": "aio-q1",
                        "left": dict(pair.left.values),
                        "right": dict(pair.right.values),
                    }
                ]
            },
        )
        assert status == 200
        [resolution] = payload["resolutions"]
        assert resolution["pair_id"] == "aio-q1"
        assert resolution["label"] in (0, 1)
        assert resolution["label_name"] in ("MATCH", "NON_MATCH")
        assert isinstance(resolution["answered"], bool)

    def test_stats_and_metrics(self, aio_server):
        status, stats = _get(aio_server, "/stats")
        assert status == 200
        assert "cache_hit_rate" in stats and "metrics" in stats
        with urllib.request.urlopen(
            aio_server.address + "/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert b"repro_service_requests_total" in response.read()

    def test_unknown_path_404(self, aio_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(aio_server, "/nope")
        assert excinfo.value.code == 404

    def test_unsupported_method_501(self, aio_server):
        request = urllib.request.Request(
            aio_server.address + "/healthz", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 501


class TestTransport:
    def test_keepalive_serves_sequential_requests_on_one_connection(
        self, aio_server
    ):
        host, port = _host_port(aio_server)
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert first.status == 200
            first.read()
            sock = connection.sock
            assert sock is not None
            body = json.dumps(
                {"pairs": [{"left": {"name": "kb"}, "right": {"name": "KB"}}]}
            )
            connection.request(
                "POST", "/resolve", body, {"Content-Type": "application/json"}
            )
            second = connection.getresponse()
            assert second.status == 200
            second.read()
            assert connection.sock is sock
        finally:
            connection.close()

    def test_error_response_closes_connection(self, aio_server):
        host, port = _host_port(aio_server)
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/resolve",
                '{"pairs": [broken',
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            response.read()
            assert response.will_close
        finally:
            connection.close()

    def test_http10_connection_closes_by_default(self, aio_server):
        host, port = _host_port(aio_server)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
            sock.settimeout(10)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed, as HTTP/1.0 demands
                chunks.append(chunk)
        response = b"".join(chunks).decode("latin-1")
        assert response.startswith("HTTP/1.1 200")
        assert "Connection: close" in response

    def test_half_sent_body_answered_408(self, aio_service):
        server = AsyncServiceHTTPServer(
            aio_service, port=0, read_timeout=0.3
        ).serve_in_background()
        try:
            host, port = _host_port(server)
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /resolve HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n"
                    b"\r\n"
                    b'{"pairs": [{"left"'
                )
                sock.settimeout(10)
                response = sock.recv(65536).decode("latin-1")
            assert response.startswith("HTTP/1.1 408")
            assert "stalled" in response
            assert "Connection: close" in response
        finally:
            server.shutdown()

    def test_dripped_header_lines_answered_408_within_one_deadline(self, aio_service):
        # Every header line arrives well inside read_timeout, but the block
        # as a whole does not: one deadline covers the whole head, so the
        # client is cut off once, not granted read_timeout per line.
        server = AsyncServiceHTTPServer(
            aio_service, port=0, read_timeout=0.6
        ).serve_in_background()
        try:
            with socket.create_connection(_host_port(server), timeout=5) as sock:
                answered = threading.Event()

                def drip():
                    for index in range(10):  # 4 s of header lines at most
                        if answered.wait(0.4):
                            return
                        try:
                            sock.sendall(b"X-Drip-%d: 1\r\n" % index)
                        except OSError:
                            return

                started = time.monotonic()
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                dripper = threading.Thread(target=drip)
                dripper.start()
                try:
                    reply = sock.recv(65536)
                except socket.timeout:
                    reply = b""
                elapsed = time.monotonic() - started
                answered.set()
                dripper.join(timeout=5)
            assert reply.startswith(b"HTTP/1.1 408"), reply
            assert b"stalled" in reply
            assert elapsed < 2.0
        finally:
            server.shutdown()

    def test_malformed_request_line_400(self, aio_server):
        host, port = _host_port(aio_server)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NOT-HTTP\r\n")
            sock.settimeout(10)
            response = sock.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400")

    def test_request_sent_one_byte_at_a_time_is_served(self, framing_server):
        # Head and body both trickle in, well inside one read_timeout each.
        request = _post_head(b"Content-Length: " + _LENGTH, b"Connection: close")
        with socket.create_connection(_host_port(framing_server), timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in request + RESOLVE_BODY:
                sock.sendall(bytes([byte]))
                time.sleep(0.002)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        [(status, headers, body)] = _responses(b"".join(chunks))
        assert status == 200 and headers["connection"] == "close"
        assert json.loads(body)["resolutions"][0]["pair_id"] == "framing"

    def test_pipelined_requests_answered_once_each_in_order(self, framing_server):
        # Five requests in one send: misses that wait on the micro-batcher
        # and routes served on the pool, answered strictly in order.
        names = [f"pipelined-{index}" for index in range(3)]
        bodies = [_resolve_body(name, name) for name in names]
        healthz = b"GET /healthz HTTP/1.1\r\nHost: p\r\n\r\n"
        data = b"".join(
            [
                _post_head(b"Content-Length: %d" % len(bodies[0])) + bodies[0],
                healthz,
                _post_head(b"Content-Length: %d" % len(bodies[1])) + bodies[1],
                _post_head(b"Content-Length: %d" % len(bodies[2])) + bodies[2],
                FOLLOW_UP,
            ]
        )
        raw, _ = _exchange(framing_server, data)
        responses = _responses(raw)
        assert [status for status, _, _ in responses] == [200] * 5
        assert [headers["connection"] for _, headers, _ in responses] == (
            ["keep-alive"] * 4 + ["close"]
        )
        payloads = [json.loads(body) for _, _, body in responses]
        assert [payloads[i]["resolutions"][0]["pair_id"] for i in (0, 2, 3)] == names
        assert payloads[1]["status"] == payloads[4]["status"] == "ok"

    def test_full_write_buffer_holds_back_pipelined_requests(self, aio_service):
        # Cache hits are answered inside data_received; while the transport
        # reports its write buffer full, the next pipelined one must wait.
        from repro.service.aio import _Connection

        names = [f"backpressure-{index}" for index in range(3)]
        bodies = [_resolve_body(name, name) for name in names]
        server = AsyncServiceHTTPServer(aio_service, port=0)
        for body in bodies:  # warm the cache
            assert server.router.handle("POST", "/resolve", {}, body).status == 200
        data = b"".join(
            _post_head(b"Content-Length: %d" % len(body)) + body for body in bodies
        )

        class FullAfterEachWrite:
            def __init__(self):
                self.written = []

            def write(self, payload):
                self.written.append(payload)
                connection.pause_writing()  # the buffer is over its mark

            def is_closing(self):
                return False

            def close(self):
                pass

        async def drive():
            nonlocal connection
            connection = _Connection(server)
            transport = FullAfterEachWrite()
            connection.connection_made(transport)
            connection.data_received(data)
            counts = [len(transport.written)]
            for _ in names:
                connection.resume_writing()
                counts.append(len(transport.written))
            return counts, transport.written

        connection = None
        try:
            counts, written = asyncio.run(drive())
        finally:
            server.shutdown()
        assert counts == [1, 2, 3, 3]
        pair_ids = [
            json.loads(body)["resolutions"][0]["pair_id"]
            for _, _, body in _responses(b"".join(written))
        ]
        assert pair_ids == names

    def test_header_line_over_64_kib_answered_400_and_closed(self, framing_server):
        long_line = b"X-Long: " + b"a" * (70 * 1024)
        raw, _ = _exchange(
            framing_server,
            b"GET /healthz HTTP/1.1\r\n" + long_line + b"\r\n\r\n" + FOLLOW_UP,
        )
        _assert_one_response_then_close(raw, 400)
        assert b"header line too long" in raw

    def test_bounded_connections_still_serve_excess_clients(self, aio_service):
        server = AsyncServiceHTTPServer(
            aio_service, port=0, max_connections=2
        ).serve_in_background()
        try:
            results = []
            errors = []

            def probe():
                try:
                    with urllib.request.urlopen(
                        server.address + "/healthz", timeout=10
                    ) as response:
                        results.append(response.status)
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [threading.Thread(target=probe) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
            assert not errors
            assert results == [200] * 6
        finally:
            server.shutdown()


class TestLifecycle:
    def test_shutdown_refuses_new_connections(self, aio_service):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        status, _ = (
            urllib.request.urlopen(server.address + "/healthz", timeout=10).status,
            None,
        )
        assert status == 200
        host, port = _host_port(server)
        server.shutdown()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    def test_shutdown_is_idempotent_and_restartable_service_untouched(
        self, aio_service
    ):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        server.shutdown()
        server.shutdown()  # second call is a no-op
        assert aio_service.running  # the service outlives its front end

    def test_constructor_validation(self, aio_service):
        with pytest.raises(ValueError, match="max_connections"):
            AsyncServiceHTTPServer(aio_service, max_connections=0)
        with pytest.raises(ValueError, match="read_timeout"):
            AsyncServiceHTTPServer(aio_service, read_timeout=0.0)
        with pytest.raises(ValueError, match="drain_timeout"):
            AsyncServiceHTTPServer(aio_service, drain_timeout=-1.0)

    def test_shutdown_closes_idle_connections_and_drains_busy_ones(self, beer_dataset):
        config = ServiceConfig(batcher=BatcherConfig(seed=1), max_batch_size=1)
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        llm = service.resolver.llm
        complete, entered, gate = llm.complete, threading.Event(), threading.Event()

        def gated_complete(*args, **kwargs):
            entered.set()
            gate.wait(10)
            return complete(*args, **kwargs)

        llm.complete = gated_complete
        body = _resolve_body("drained", "drained")
        try:
            with socket.create_connection(_host_port(server), timeout=10) as idle, \
                    socket.create_connection(_host_port(server), timeout=10) as busy:
                # One answered request proves the idle connection was accepted.
                idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: i\r\n\r\n")
                reply = b""
                while not reply.endswith(b"}"):
                    chunk = idle.recv(65536)
                    assert chunk, reply
                    reply += chunk
                busy.sendall(_post_head(b"Content-Length: %d" % len(body)) + body)
                assert entered.wait(10)
                stopper = threading.Thread(target=server.shutdown)
                stopper.start()
                assert idle.recv(1) == b""  # closed at once, unanswered
                gate.set()
                chunks = []
                while chunk := busy.recv(65536):
                    chunks.append(chunk)
                stopper.join(10)
        finally:
            gate.set()
            server.shutdown()
            service.stop()
        [(status, headers, payload)] = _responses(b"".join(chunks))
        assert status == 200 and headers["connection"] == "close"
        assert json.loads(payload)["resolutions"][0]["pair_id"] == "drained"

    def test_requests_served_counter(self, aio_service):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        try:
            urllib.request.urlopen(server.address + "/healthz", timeout=10).read()
            urllib.request.urlopen(server.address + "/stats", timeout=10).read()
            assert server.requests_served >= 2
        finally:
            server.shutdown()


def _resolve_body(name, pair_id):
    return json.dumps(
        {"pairs": [{"pair_id": pair_id, "left": {"name": name}, "right": {"name": name}}]}
    ).encode("utf-8")


def _wire_post(server, body, headers=()):
    """POST ``body`` to ``/resolve``; returns status, Retry-After and body."""
    connection = http.client.HTTPConnection(*_host_port(server), timeout=30)
    try:
        connection.request(
            "POST", "/resolve", body=body,
            headers={"Content-Type": "application/json", **dict(headers)},
        )
        response = connection.getresponse()
        return response.status, response.getheader("Retry-After"), response.read()
    finally:
        connection.close()


def _routed_post(service, body, headers=()):
    """The same request through ``ServiceRouter.handle`` in-process."""
    from repro.service.http import ServiceRouter

    result = ServiceRouter(service).handle(
        "POST",
        "/resolve",
        {"content-type": "application/json", **{k.lower(): v for k, v in headers}},
        body,
    )
    return result.status, dict(result.headers).get("Retry-After"), result.body


def _request_counts(service):
    """``repro_service_requests_total`` as ``{(tenant, status): count}``."""
    family = service.metrics.snapshot()["repro_service_requests_total"]
    return {
        (sample["labels"]["tenant"], sample["labels"]["status"]): sample["value"]
        for sample in family["series"]
    }


class TestFrontendIdentity:
    def test_wire_bodies_byte_identical_to_router(
        self, aio_service, aio_server, beer_dataset
    ):
        from repro.engines.faults import FakeClock
        from repro.service import TenantConfig

        # A cached POST comes off the wire byte-identical to the body
        # ServiceRouter.handle returns in-process for the same request...
        cached = _resolve_body("identity", "identity")
        _wire_post(aio_server, cached)  # warm the cache: the pair below is a hit
        wire = _wire_post(aio_server, cached)
        assert wire[0] == 200 and wire[2]
        assert wire == _routed_post(aio_service, cached)
        # ...and HEAD /healthz answers 200 without a body.
        connection = http.client.HTTPConnection(*_host_port(aio_server), timeout=10)
        try:
            connection.request("HEAD", "/healthz")
            response = connection.getresponse()
            assert (response.status, response.read()) == (200, b"")
        finally:
            connection.close()

        # Every /resolve outcome: the event-loop path and handle() must send
        # the same status, Retry-After and body bytes.  A frozen clock keeps
        # the quota refusal's "retry in" figure equal on both.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=1,
            tenants=(
                TenantConfig(
                    name="metered", api_key="k-metered",
                    requests_per_second=1.0, burst=1.0,
                ),
            ),
        )
        service = ResolutionService.from_dataset(
            beer_dataset, config, clock=FakeClock()
        ).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        before = _request_counts(service)
        metered = (("X-API-Key", "k-metered"),)
        try:
            # A miss on the wire against a hit through the router...
            body = _resolve_body("wire-first", "wire-first")
            cases = [(_wire_post(server, body), _routed_post(service, body))]
            # ...a miss through the router against a hit on the wire...
            body = _resolve_body("router-first", "router-first")
            routed = _routed_post(service, body)
            cases.append((_wire_post(server, body), routed))
            # ...and a hit on both.
            hit = _resolve_body("wire-first", "again")
            cases.append((_wire_post(server, hit), _routed_post(service, hit)))
            for body, headers in (
                (b"not json", ()),  # 400
                (hit, (("X-API-Key", "k-wrong"),)),  # 401
            ):
                cases.append(
                    (_wire_post(server, body, headers), _routed_post(service, body, headers))
                )
            assert _wire_post(server, hit, metered)[0] == 200  # spends the burst
            cases.append(  # 429, with the quota's Retry-After
                (_wire_post(server, hit, metered), _routed_post(service, hit, metered))
            )
        finally:
            server.shutdown()
            service.stop()
        statuses = [wire[0] for wire, _ in cases]
        assert statuses == [200, 200, 200, 400, 401, 429]
        for wire, routed in cases:
            assert wire == routed
        assert cases[-1][0][1] == "1"
        after = _request_counts(service)
        counted = {key: after[key] - before.get(key, 0) for key in after}
        assert {key: value for key, value in counted.items() if value} == {
            ("anonymous", "200"): 6,
            ("anonymous", "400"): 2,
            ("anonymous", "401"): 2,
            ("metered", "200"): 1,
            ("metered", "429"): 2,
        }

        # 503 overload: a never-started consumer and a one-slot queue.  The
        # loop refuses at once; handle() waits out the admission timeout.
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), queue_capacity=1,
            admission_timeout_seconds=0.05,
        )
        service = ResolutionService.from_dataset(beer_dataset, config)
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        try:
            service.submit(beer_dataset.splits.test[0].without_label())
            body = _resolve_body("overload", "overload")
            wire, routed = _wire_post(server, body), _routed_post(service, body)
        finally:
            server.shutdown()
            service.stop()
        assert wire[0] == 503 and wire[1] is not None
        assert wire == routed
        assert _request_counts(service)[("anonymous", "503")] == 2


class TestEventLoopAdmission:
    def test_loop_never_waits_for_queue_space(self, beer_dataset):
        config = ServiceConfig(
            batcher=BatcherConfig(seed=1),
            max_batch_size=1,
            queue_capacity=1,
            admission_timeout_seconds=5.0,
        )
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        questions = [pair.without_label() for pair in beer_dataset.splits.test]
        llm = service.resolver.llm
        complete, gate = llm.complete, threading.Event()

        def gated_complete(*args, **kwargs):
            gate.wait(30)
            return complete(*args, **kwargs)

        def payload(pair):
            entry = {"left": dict(pair.left.values), "right": dict(pair.right.values)}
            return {"pairs": [{"pair_id": pair.pair_id, **entry}]}

        # Every flush slot holds a flush waiting on the model, the consumer
        # holds one more (no slot is free), and the next fills the queue.
        bound = max_flushes_in_flight(config)
        held_pairs, missed = questions[1 : bound + 3], questions[bound + 3]
        try:
            [cached] = service.resolve_many([questions[0]])
            llm.complete = gated_complete
            held = [service.submit(pair) for pair in held_pairs]
            assert service.queue_depth == 1

            outcomes = {}

            def call(name, request):
                started = time.monotonic()
                try:
                    outcomes[name] = request()
                except urllib.error.HTTPError as error:
                    outcomes[name] = (error.code, error.headers.get("Retry-After"))
                outcomes[name] += (time.monotonic() - started,)

            calls = {
                "miss": lambda: _post(server, "/resolve", payload(missed)),
                "healthz": lambda: _get(server, "/healthz"),
                "hit": lambda: _post(server, "/resolve", payload(questions[0])),
            }
            threads = [
                threading.Thread(target=call, args=item) for item in calls.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
            assert not any(held_future.done() for held_future in held)
        finally:
            gate.set()
            server.shutdown()
        try:
            status, retry_after, seconds = outcomes["miss"]
            assert status == 503 and int(retry_after) >= 1
            assert seconds < 1.0  # well within admission_timeout_seconds
            assert outcomes["healthz"][0] == 200
            status, body, _ = outcomes["hit"]
            assert status == 200
            assert body["resolutions"][0]["label"] == cached.label
            assert service.stats().rejected_overload == 1
            for future in held:  # the gated flushes complete once released
                future.result(timeout=30)
        finally:
            service.stop()

    def test_large_resolve_on_an_idle_server_waits_for_queue_space(self, beer_dataset):
        # More new pairs than the queue holds: submitted one by one on the
        # loop, the queue would refuse them before the consumer could take
        # any.  A body this size is admitted on the pool, where submit waits
        # for the consumer to drain, so an idle server answers it.
        from repro.service.aio import LOOP_RESOLVE_MAX_BYTES

        config = ServiceConfig(batcher=BatcherConfig(seed=1), queue_capacity=8)
        service = ResolutionService.from_dataset(beer_dataset, config).start()
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        questions = list(beer_dataset.splits.test)[:40]
        payload = {
            "pairs": [
                {
                    "pair_id": pair.pair_id,
                    "left": dict(pair.left.values),
                    "right": dict(pair.right.values),
                }
                for pair in questions
            ]
        }
        assert len(json.dumps(payload)) > LOOP_RESOLVE_MAX_BYTES
        try:
            status, body = _post(server, "/resolve", payload)
            assert status == 200
            assert [item["pair_id"] for item in body["resolutions"]] == [
                pair.pair_id for pair in questions
            ]
            assert service.stats().rejected_overload == 0
        finally:
            server.shutdown()
            service.stop()

    def test_submit_from_a_coroutine_never_waits_for_queue_space(self, beer_dataset):
        # The no-wait rule is the service's, not the HTTP front end's: any
        # caller on a thread running an event loop is refused at once, while
        # a plain thread waits out admission_timeout_seconds first.
        from repro.service.service import ServiceOverloaded

        config = ServiceConfig(
            batcher=BatcherConfig(seed=1), queue_capacity=1,
            admission_timeout_seconds=0.5,
        )
        service = ResolutionService.from_dataset(beer_dataset, config)  # no consumer
        questions = [pair.without_label() for pair in beer_dataset.splits.test]
        service.submit(questions[0])  # fills the one-slot queue

        async def in_a_coroutine():
            started = time.monotonic()
            with pytest.raises(ServiceOverloaded):
                service.resolve_many([questions[1]])
            return time.monotonic() - started

        try:
            assert asyncio.run(in_a_coroutine()) < 0.25
            started = time.monotonic()
            with pytest.raises(ServiceOverloaded):
                service.resolve_many([questions[2]])
            assert time.monotonic() - started >= 0.5
            assert service.stats().rejected_overload == 2
        finally:
            service.stop()


def _post_head(*framing):
    return b"POST /resolve HTTP/1.1\r\nHost: t\r\n" + b"".join(
        line + b"\r\n" for line in framing
    ) + b"\r\n"


_SMUGGLED = b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
_LENGTH = str(len(RESOLVE_BODY)).encode()


#: ``(request, status, head)``: a request whose framing is ambiguous, the
#: status that answers it, and whether that answer is a ``HEAD`` one.
_AMBIGUOUS_FRAMING = [
    pytest.param(
        _post_head(b"Content-Length: 5", b"Content-Length: " + _LENGTH)
        + RESOLVE_BODY,
        400,
        False,
        id="conflicting-duplicate-content-length",
    ),
    pytest.param(
        _post_head(b"Content-Length: 5, " + _LENGTH) + RESOLVE_BODY,
        400,
        False,
        id="conflicting-content-length-list",
    ),
    pytest.param(
        _post_head(b"Content-Length: +" + _LENGTH) + RESOLVE_BODY,
        400,
        False,
        id="signed-content-length",
    ),
    pytest.param(
        _post_head(b"Content-Length: " + b"9" * 5000) + RESOLVE_BODY,
        400,
        False,
        id="content-length-beyond-int-conversion",
    ),
    pytest.param(
        _post_head(b"Content-Length : " + _LENGTH) + RESOLVE_BODY,
        400,
        False,
        id="space-before-colon",
    ),
    pytest.param(
        _post_head(b"Content-Length: " + _LENGTH, b"Transfer-Encoding: chunked")
        + RESOLVE_BODY
        + _SMUGGLED,
        501,
        False,
        id="transfer-encoding-with-smuggled-request",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 31\r\n\r\n"
        + _SMUGGLED,
        400,
        False,
        id="get-with-body",
    ),
    pytest.param(
        b"HEAD /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 31\r\n\r\n"
        + _SMUGGLED,
        400,
        True,
        id="head-with-body",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nHost: t",
        400,
        False,
        id="truncated-head",
    ),
]

#: Framings whose ``Content-Length`` values agree.
_AGREEING_FRAMING = [
    pytest.param([b"Content-Length: " + _LENGTH, b"Content-Length: " + _LENGTH], id="repeated"),
    pytest.param([b"Content-Length: " + _LENGTH + b", " + _LENGTH], id="listed"),
    pytest.param([b"Content-Length: 00" + _LENGTH], id="leading-zeros"),
]


class TestFraming:
    """RFC 9112 §6.3: a request whose body length is ambiguous is answered
    exactly once and the connection closed — never read as two requests."""

    @pytest.mark.parametrize(("request_bytes", "status", "head"), _AMBIGUOUS_FRAMING)
    def test_ambiguous_framing_answered_once_then_closed(
        self, framing_server, request_bytes, status, head
    ):
        raw, _ = _exchange(framing_server, request_bytes)
        _assert_one_response_then_close(raw, status, head_first=head)

    @pytest.mark.parametrize("framing", _AGREEING_FRAMING)
    def test_agreeing_content_lengths_frame_the_body(self, framing_server, framing):
        raw, _ = _exchange(
            framing_server, _post_head(*framing) + RESOLVE_BODY + FOLLOW_UP
        )
        _assert_keep_alive_then_follow_up(raw, 200)

    def test_bodiless_get_with_zero_length_keeps_alive(self, framing_server):
        raw, _ = _exchange(
            framing_server,
            b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n" + FOLLOW_UP,
        )
        _assert_keep_alive_then_follow_up(raw, 200)


def _parsed_status(request_bytes):
    """What the pure parser makes of a whole request: the status of the
    error that answers its head, or 200 when the head frames cleanly."""
    parsed = parse_head(request_bytes[: HEAD_END.search(request_bytes).start()])
    if isinstance(parsed, RouteResult):
        return parsed.status
    method, _, _, headers = parsed
    error = body_error(method, int(headers.get("content-length", "0")))
    return 200 if error is None else error.status


class TestHeadParser:
    """The pure head parser over TestFraming's table: the status it gives
    each request is the one the wire answers."""

    @pytest.mark.parametrize(("request_bytes", "status", "head"), _AMBIGUOUS_FRAMING)
    def test_ambiguous_framing(self, request_bytes, status, head):
        if HEAD_END.search(request_bytes) is None:
            return  # a head cut off never reaches the parser
        assert _parsed_status(request_bytes) == status
        assert is_head_request(request_bytes) == head

    @pytest.mark.parametrize("framing", _AGREEING_FRAMING)
    def test_agreeing_content_lengths(self, framing):
        request = _post_head(*framing) + RESOLVE_BODY
        assert _parsed_status(request) == 200
        *_, headers = parse_head(request[: HEAD_END.search(request).start()])
        assert headers["content-length"] == str(len(RESOLVE_BODY))

    def test_bare_lf_and_stray_blank_lines(self):
        crlf = b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        bare = crlf.replace(b"\r\n", b"\n")
        assert [HEAD_END.search(data).end() for data in (crlf, bare)] == [
            len(crlf), len(bare)
        ]
        assert parse_head(crlf[: HEAD_END.search(crlf).start()]) == parse_head(
            bare[: HEAD_END.search(bare).start()]
        ) == ("GET", "/healthz", "HTTP/1.1", {"host": "t", "content-length": "0"})
        assert blank_prefix(b"\r\n\n \r\n" + crlf) == 6
        assert blank_prefix(crlf) == 0

    def test_line_and_header_caps(self):
        long_value = b"a" * (64 * 1024)
        assert parse_head(b"GET / HTTP/1.1\r\nX: " + long_value).status == 400
        many = b"".join(b"\r\nX-%d: 1" % index for index in range(129))
        assert parse_head(b"GET / HTTP/1.1" + many).status == 400
        assert isinstance(parse_head(b"GET / HTTP/1.1" + many[:-9]), tuple)


_REQUEST_LINES = (
    b"POST /resolve HTTP/1.1",
    b"GET /healthz HTTP/1.1",
    b"HEAD /healthz HTTP/1.1",
    b"GET /readyz HTTP/1.0",
    b"POST /nope HTTP/1.1",
    b"DELETE /healthz HTTP/1.1",
    b"GET /healthz HTTP/2",
    b"GET /healthz",
)
_HEADER_LINES = (
    b"Host: fuzz",
    b"Accept: */*",
    b"Connection: close",
    b"Connection: keep-alive",
    b"Transfer-Encoding: chunked",
    b"Transfer-Encoding: identity",
    b"No-Colon-Here",
    b"Bad Name: x",
    b": no-name",
)
#: Invalid ``Content-Length`` values, built around the body's true length
#: so that a lenient parser would frame the body correctly and answer 200.
_BAD_LENGTHS = (b"+%s", b"-%s", b"%s;", b"0x%s", b"%s %s", b"\xb2", b"", b"abc")


#: Requests drawn per run, one seed each.
FUZZ_REQUESTS = 200


def _line(rng, max_size):
    """One line's worth of raw bytes: no LF, never empty (an empty header
    line would end the header block and turn later headers into a new
    request), and not a ``HEAD`` request line in disguise."""
    while True:
        data = bytes(rng.randrange(256) for _ in range(rng.randint(1, max_size)))
        if b"\n" not in data and not data.startswith(b"HEAD"):
            return data


def _mostly(rng, common, rare):
    """``common()`` four draws in five, ``rare()`` otherwise."""
    return rare() if rng.randrange(5) == 0 else common()


def _request(rng):
    """One request attempt: its bytes, whether it is a ``HEAD``, whether its
    framing is ambiguous, and where (if at all) the input is cut off.

    Mostly well-formed request lines and headers, so the framing mutations
    are reached instead of being masked by an earlier 400.  The body is
    never longer than the ``Content-Length`` the request claims: a client
    that sends more than it frames has itself started a second request,
    which no server can tell apart from pipelining.  Drawn from a seeded
    ``random.Random``, so the example set depends only on the seed.
    """
    request_line = _mostly(
        rng, lambda: rng.choice(_REQUEST_LINES), lambda: _line(rng, 32)
    )
    headers = [
        _mostly(rng, lambda: rng.choice(_HEADER_LINES), lambda: _line(rng, 24))
        for _ in range(rng.randint(0, 3))
    ]
    body = _mostly(
        rng,
        lambda: RESOLVE_BODY,
        lambda: bytes(rng.randrange(256) for _ in range(rng.randint(0, 48))),
    )
    mode = rng.choice(
        ["conflicting", "exact", "truncated", "repeated", "invalid", "none"]
    )
    length = str(len(body)).encode()
    if mode == "none":
        framing, body = [], b""
    elif mode == "exact":
        framing = [b"Content-Length: " + length]
    elif mode == "truncated":
        framing = [b"Content-Length: %d" % (len(body) + rng.randint(1, 200))]
    elif mode == "repeated":
        framing = [b"Content-Length: " + length] * 2
    elif mode == "conflicting":
        other = rng.choice(
            [value for value in range(2 * len(body) + 2) if value != len(body)]
        )
        framing = [b"Content-Length: " + length, b"Content-Length: %d" % other]
        rng.shuffle(framing)
    else:
        bad = rng.choice(_BAD_LENGTHS)
        framing = [b"Content-Length: " + bad.replace(b"%s", length)]
    at = rng.randint(0, len(headers))
    lines = headers[:at] + framing + headers[at:]
    data = b"\r\n".join([request_line, *lines]) + b"\r\n\r\n" + body
    ambiguous = mode in ("conflicting", "invalid") or any(
        line.lower().startswith(b"transfer-encoding") for line in lines
    )
    cut = _mostly(rng, lambda: None, lambda: rng.randint(1, len(data) - 1))
    return data, request_line.startswith(b"HEAD "), ambiguous, cut


#: Found by an earlier fuzz run: a ``HEAD`` request line cut off after
#: four bytes was answered with a body.
_FOUND_REQUESTS = {
    "head-cut-after-4-bytes": (
        b"HEAD /healthz HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n",
        True,
        True,
        4,
    ),
}

_FUZZ_CASES = {
    **_FOUND_REQUESTS,
    **{f"seed{seed}": _request(random.Random(seed)) for seed in range(FUZZ_REQUESTS)},
}


class TestFramingFuzz:
    @pytest.mark.parametrize(
        "attempt", list(_FUZZ_CASES.values()), ids=list(_FUZZ_CASES)
    )
    def test_one_response_per_request_no_phantoms_no_hangs(
        self, framing_server, attempt
    ):
        data, head, ambiguous, cut = attempt
        if cut is not None:
            # Input cut off mid-request, then EOF: the partial request is
            # answered once with an error, never routed as if complete.
            raw, elapsed = _exchange(framing_server, data[:cut])
            assert elapsed < framing_server.read_timeout
            [(status, headers, _)] = _responses(raw, head_first=head)
            assert headers["connection"] == "close" and status >= 400
            return
        raw, elapsed = _exchange(framing_server, data + FOLLOW_UP)
        assert elapsed < framing_server.read_timeout
        responses = _responses(raw, head_first=head)
        assert responses, "no response at all"
        status, headers, _ = responses[0]
        if headers["connection"] == "close":
            # Closed after one response: nothing may follow it.
            assert len(responses) == 1
        else:
            # Kept alive: the pipelined follow-up is answered, and nothing
            # else is — in particular no response to leftover body bytes.
            _assert_keep_alive_then_follow_up(raw, status, head_first=head)
        if ambiguous:
            assert headers["connection"] == "close" and status >= 400
