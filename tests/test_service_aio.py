"""Tests for the asyncio HTTP front end (`repro.service.aio`).

Routing semantics live in ``ServiceRouter`` (see ``test_service_http.py``),
so these tests focus on what the transport owns: HTTP/1.1 keep-alive, strict
request framing, per-request read deadlines (slowloris), connection
bounding, graceful drain, and byte-identity of wire and routed bodies.
"""

import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BatcherConfig
from repro.service import ResolutionService, ServiceConfig
from repro.service.aio import AsyncServiceHTTPServer


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

    def test_malformed_request_line_400(self, aio_server):
        host, port = _host_port(aio_server)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NOT-HTTP\r\n")
            sock.settimeout(10)
            response = sock.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400")

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

    def test_requests_served_counter(self, aio_service):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        try:
            urllib.request.urlopen(server.address + "/healthz", timeout=10).read()
            urllib.request.urlopen(server.address + "/stats", timeout=10).read()
            assert server.requests_served >= 2
        finally:
            server.shutdown()


class TestFrontendIdentity:
    def test_wire_bodies_byte_identical_to_router(self, aio_service):
        # The self-test helper drives a cached POST over HTTP and through
        # ServiceRouter.handle in-process, and byte-compares the bodies;
        # reuse it as the unit-level oracle.
        from repro.service.cli import _frontend_checks

        checks = _frontend_checks(aio_service)
        assert checks == {
            "wire_body_byte_identical_to_router": True,
            "head_healthz_answered_without_body": True,
        }


def _post_head(*framing):
    return b"POST /resolve HTTP/1.1\r\nHost: t\r\n" + b"".join(
        line + b"\r\n" for line in framing
    ) + b"\r\n"


_SMUGGLED = b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
_LENGTH = str(len(RESOLVE_BODY)).encode()


class TestFraming:
    """RFC 9112 §6.3: a request whose body length is ambiguous is answered
    exactly once and the connection closed — never read as two requests."""

    @pytest.mark.parametrize(
        ("request_bytes", "status", "head"),
        [
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
        ],
    )
    def test_ambiguous_framing_answered_once_then_closed(
        self, framing_server, request_bytes, status, head
    ):
        raw, _ = _exchange(framing_server, request_bytes)
        _assert_one_response_then_close(raw, status, head_first=head)

    @pytest.mark.parametrize(
        "framing",
        [
            [b"Content-Length: " + _LENGTH, b"Content-Length: " + _LENGTH],
            [b"Content-Length: " + _LENGTH + b", " + _LENGTH],
            [b"Content-Length: 00" + _LENGTH],
        ],
        ids=["repeated", "listed", "leading-zeros"],
    )
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


def _line(max_size):
    # One line's worth of raw bytes: no LF, never empty (an empty header line
    # would end the header block and turn later headers into a new request).
    return st.binary(min_size=1, max_size=max_size).filter(
        lambda data: b"\n" not in data and not data.startswith(b"HEAD")
    )


def _mostly(common, rare):
    """``common`` four draws in five, ``rare`` otherwise."""
    return st.integers(min_value=0, max_value=4).flatmap(
        lambda pick: rare if pick == 0 else common
    )


@st.composite
def _requests(draw):
    """One request attempt: its bytes, whether it is a ``HEAD``, whether its
    framing is ambiguous, and where (if at all) the input is cut off.

    Mostly well-formed request lines and headers, so the framing mutations
    are reached instead of being masked by an earlier 400.  The body is
    never longer than the ``Content-Length`` the request claims: a client
    that sends more than it frames has itself started a second request,
    which no server can tell apart from pipelining.
    """
    request_line = draw(_mostly(st.sampled_from(_REQUEST_LINES), _line(32)))
    headers = draw(
        st.lists(_mostly(st.sampled_from(_HEADER_LINES), _line(24)), max_size=3)
    )
    body = draw(_mostly(st.just(RESOLVE_BODY), st.binary(max_size=48)))
    mode = draw(
        st.sampled_from(
            ["conflicting", "exact", "truncated", "repeated", "invalid", "none"]
        )
    )
    length = str(len(body)).encode()
    if mode == "none":
        framing, body = [], b""
    elif mode == "exact":
        framing = [b"Content-Length: " + length]
    elif mode == "truncated":
        extra = draw(st.integers(min_value=1, max_value=200))
        framing = [b"Content-Length: %d" % (len(body) + extra)]
    elif mode == "repeated":
        framing = [b"Content-Length: " + length] * 2
    elif mode == "conflicting":
        other = draw(
            st.integers(min_value=0, max_value=2 * len(body) + 1).filter(
                lambda value: value != len(body)
            )
        )
        framing = [b"Content-Length: " + length, b"Content-Length: %d" % other]
        framing = draw(st.permutations(framing))
    else:
        bad = draw(st.sampled_from(_BAD_LENGTHS))
        framing = [b"Content-Length: " + bad.replace(b"%s", length)]
    at = draw(st.integers(min_value=0, max_value=len(headers)))
    lines = headers[:at] + framing + headers[at:]
    data = b"\r\n".join([request_line, *lines]) + b"\r\n\r\n" + body
    ambiguous = mode in ("conflicting", "invalid") or any(
        line.lower().startswith(b"transfer-encoding") for line in lines
    )
    cut = draw(_mostly(st.none(), st.integers(min_value=1, max_value=len(data) - 1)))
    return data, request_line.startswith(b"HEAD "), ambiguous, cut


class TestFramingFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(attempt=_requests())
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
