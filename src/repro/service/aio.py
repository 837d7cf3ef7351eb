"""Asyncio HTTP/1.1 front end for a :class:`ResolutionService`.

:class:`AsyncServiceHTTPServer` is the service's only HTTP transport.  It
owns the wire — connections, framing, deadlines — and hands every parsed
request to the transport-agnostic :class:`~repro.service.http.ServiceRouter`,
which owns routing, tenant authentication, error mapping and the response
bodies.  The transport discipline:

* **one event loop, no thread per connection** — connections are coroutine
  tasks on an :func:`asyncio.start_server` loop, so thousands of idle
  keep-alive connections cost file descriptors, not stacks;
* **bounded concurrency** — an :class:`asyncio.Semaphore` caps the number of
  connections that may be serviced at once (excess connections queue at the
  accept backlog instead of exhausting memory);
* **strict request framing** (RFC 9112 §6.3) — a request body is framed by
  ``Content-Length`` alone, so a keep-alive connection can never read part
  of one request as the next: any ``Transfer-Encoding`` is answered 501,
  conflicting, non-numeric or negative ``Content-Length`` values 400, a
  ``GET``/``HEAD`` announcing a body 400, and a request cut off mid-head
  400.  Each of these is answered exactly once and the connection closed;
* **per-request read deadlines** — the request line, each header line and the
  body are all read under :func:`asyncio.wait_for` timeouts; a slowloris
  client that stalls mid-body is answered 408 and disconnected;
* **graceful drain** — :meth:`shutdown` stops accepting, cancels idle
  keep-alive connections immediately, and gives in-flight requests
  ``drain_timeout`` seconds to finish before cancelling them.

The service core itself (micro-batcher, cache, breaker, tenant admission) is
synchronous: routed requests are dispatched to it through
``loop.run_in_executor`` on a private thread pool, keeping the event loop free
to multiplex sockets while the resolution work runs on threads.
"""

from __future__ import annotations

import asyncio
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Mapping

from repro.service.http import (
    MAX_BODY_BYTES,
    RouteResult,
    ServiceRouter,
    _error_result,
)
from repro.service.service import ResolutionService

#: Default cap on concurrently serviced connections.
DEFAULT_MAX_CONNECTIONS = 128

#: Default deadline for reading one request's headers or body.
DEFAULT_READ_TIMEOUT_SECONDS = 10.0

#: Default patience for an idle keep-alive connection between requests.
DEFAULT_IDLE_TIMEOUT_SECONDS = 65.0

#: Default grace period for in-flight requests during shutdown.
DEFAULT_DRAIN_TIMEOUT_SECONDS = 5.0

#: An RFC 9110 ``token``: the only valid header field name.
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


def _merge_content_length(value: str, seen: str | None) -> str | None:
    """Fold one ``Content-Length`` field into the length seen so far.

    RFC 9112 §6.3: repeated or comma-listed values frame the body only when
    they all name the same non-negative decimal length.  Returns that length
    in canonical form, or ``None`` when the framing is invalid or ambiguous.
    """
    items = [item.strip() for item in value.split(",")]
    if seen is not None:
        items.append(seen)
    if not all(item.isascii() and item.isdigit() for item in items):
        return None
    try:
        lengths = {int(item) for item in items}
    except ValueError:  # more digits than int() will convert
        return None
    return str(lengths.pop()) if len(lengths) == 1 else None


def _status_phrase(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:  # pragma: no cover - router only emits known codes
        return "Unknown"


class AsyncServiceHTTPServer:
    """An asyncio HTTP/1.1 server bound to one :class:`ResolutionService`.

    The event loop runs on a dedicated daemon thread
    (:meth:`serve_in_background`), so the server embeds in synchronous
    programs and tests.

    Args:
        service: the (started) service answering the requests.
        host / port: bind address; port ``0`` picks a free port (see
            :attr:`address` for the actual one).
        max_connections: cap on connections serviced concurrently.
        read_timeout: seconds a client gets to deliver each request's
            headers, and separately its promised body, before a 408/close.
        idle_timeout: seconds a keep-alive connection may sit idle between
            requests before the server closes it.
        drain_timeout: seconds :meth:`shutdown` waits for in-flight requests
            before cancelling them.
        verbose: log one line per request to stderr.
        max_workers: size of the dispatch thread pool bridging the event
            loop to the synchronous service core (default: ``max_batch_size``
            of the service config, at least 8).
    """

    def __init__(
        self,
        service: ResolutionService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        read_timeout: float = DEFAULT_READ_TIMEOUT_SECONDS,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT_SECONDS,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT_SECONDS,
        verbose: bool = False,
        max_workers: int | None = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        if read_timeout <= 0 or idle_timeout <= 0:
            raise ValueError("read_timeout and idle_timeout must be > 0")
        if drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {drain_timeout}")
        self.service = service
        self.router = ServiceRouter(service)
        self.verbose = verbose
        self.max_connections = max_connections
        self.read_timeout = read_timeout
        self.idle_timeout = idle_timeout
        self.drain_timeout = drain_timeout
        self._host = host
        self._port = port
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers
            if max_workers is not None
            else max(8, service.config.max_batch_size),
            thread_name_prefix="repro-aio-dispatch",
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._bound: tuple[str, int] | None = None
        self._startup_error: BaseException | None = None
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self.requests_served = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> str:
        """The server's ``http://host:port`` base URL."""
        if self._bound is None:
            raise RuntimeError("server is not running")
        host, port = self._bound
        return f"http://{host}:{port}"

    def serve_in_background(self) -> "AsyncServiceHTTPServer":
        """Start the event loop on a daemon thread; returns once bound."""
        if self._thread is not None and self._thread.is_alive():
            return self
        started = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run, args=(started,), name="repro-service-aio", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10.0):  # pragma: no cover - defensive
            raise RuntimeError("asyncio front end failed to start within 10s")
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5.0)
            self._thread = None
            raise error
        return self

    def serve_forever(self) -> None:
        """Serve until interrupted (blocks the calling thread)."""
        self.serve_in_background()
        thread = self._thread
        if thread is not None:  # pragma: no branch - set by serve_in_background
            thread.join()

    def shutdown(self) -> None:
        """Drain in-flight requests, stop the loop, join the thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 10.0)
            self._thread = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _run(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(started))
        except BaseException as error:  # pragma: no cover - defensive
            if not started.is_set():
                self._startup_error = error
                started.set()
            else:
                raise
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None

    async def _serve(self, started: threading.Event) -> None:
        self._stop = asyncio.Event()
        self._semaphore = asyncio.Semaphore(self.max_connections)
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except OSError as error:
            self._startup_error = error
            started.set()
            return
        sockname = server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain()
            self._bound = None

    async def _drain(self) -> None:
        # Idle keep-alive connections are parked in a readline with nothing
        # in flight; cut them immediately.  Busy ones get the grace period.
        for task in list(self._connections - self._busy):
            task.cancel()
        busy = {task for task in self._busy if not task.done()}
        if busy:
            await asyncio.wait(busy, timeout=self.drain_timeout)
        for task in list(self._connections):
            if not task.done():
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            async with self._semaphore:
                await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        except Exception:  # pragma: no cover - one bad peer must not
            # take the accept loop down.
            pass
        finally:
            self._connections.discard(task)
            self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        while True:
            try:
                request_line = await asyncio.wait_for(
                    reader.readline(), self.idle_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                return  # idle keep-alive connection expired
            except ValueError:
                return await self._reject(writer, 400, "request line too long")
            if not request_line:
                return  # client closed the connection
            if not request_line.endswith(b"\n"):
                return await self._reject(writer, 400, "request line truncated")
            line = request_line.decode("latin-1").strip()
            if not line:
                continue  # tolerate stray CRLF between pipelined requests
            parts = line.split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                return await self._reject(
                    writer, 400, f"malformed request line {line!r}"
                )
            method, path, version = parts

            headers = await self._read_headers(reader)
            if isinstance(headers, RouteResult):
                return await self._write_result(
                    writer, headers, method == "HEAD", True
                )

            self._busy.add(task)
            try:
                keep_alive = await self._serve_request(
                    method, path, version, headers, reader, writer
                )
            finally:
                self._busy.discard(task)
            if not keep_alive:
                return

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> dict[str, str] | RouteResult:
        """Read one header block, or the error result that must answer it.

        The framing headers are checked line by line, before the dict would
        let a later duplicate overwrite an earlier one: a request whose body
        length is ambiguous is never routed.
        """
        headers: dict[str, str] = {}
        try:
            while True:
                raw = await asyncio.wait_for(reader.readline(), self.read_timeout)
                if raw in (b"\r\n", b"\n"):
                    return headers
                if not raw.endswith(b"\n"):
                    return _error_result(400, "request headers truncated")
                text = raw.decode("latin-1").rstrip("\r\n")
                name, sep, value = text.partition(":")
                # RFC 9112 §5.1: a field name is a token, with no whitespace
                # before the colon.
                if not sep or not _FIELD_NAME.fullmatch(name):
                    return _error_result(400, f"malformed header line {text!r}")
                name, value = name.lower(), value.strip()
                if name == "transfer-encoding":
                    return _error_result(
                        501,
                        f"Transfer-Encoding {value!r} is not supported; "
                        "frame the body with Content-Length",
                    )
                if name == "content-length":
                    length = _merge_content_length(value, headers.get(name))
                    if length is None:
                        return _error_result(400, f"invalid Content-Length {value!r}")
                    value = length
                headers[name] = value
                if len(headers) > 128:
                    return _error_result(400, "too many headers")
        except (asyncio.TimeoutError, TimeoutError):
            return _error_result(
                408, f"request headers stalled for {self.read_timeout:g}s"
            )
        except ValueError:
            return _error_result(400, "header line too long")

    async def _serve_request(
        self,
        method: str,
        path: str,
        version: str,
        headers: Mapping[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one parsed request; returns whether to keep the connection."""
        loop = asyncio.get_running_loop()
        head_only = method == "HEAD"
        length = int(headers.get("content-length", "0"))
        if method == "POST":
            result = await self._route_post(path, headers, length, reader, loop)
        elif method in ("GET", "HEAD") and length:
            # An ignored body would be parsed as the next request.
            result = _error_result(400, f"{method} request must not carry a body")
        elif method in ("GET", "HEAD"):
            result = await loop.run_in_executor(
                self._executor, self.router.handle, method, path, headers, None
            )
        else:
            result = _error_result(501, f"unsupported method {method!r}")
        # HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the client's
        # Connection header and error paths (result.close) override.
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            close = result.close or connection != "keep-alive"
        elif version == "HTTP/1.1":
            close = result.close or connection == "close"
        else:
            close = True
        self.requests_served += 1
        if self.verbose:  # pragma: no cover - log plumbing
            import sys

            print(
                f"repro-aio: {method} {path} -> {result.status}", file=sys.stderr
            )
        await self._write_result(writer, result, head_only, close)
        return not close

    async def _route_post(
        self,
        path: str,
        headers: Mapping[str, str],
        length: int,
        reader: asyncio.StreamReader,
        loop: asyncio.AbstractEventLoop,
    ) -> RouteResult:
        if length <= 0 or length > MAX_BODY_BYTES:
            return _error_result(400, f"body must be 1..{MAX_BODY_BYTES} bytes")
        try:
            raw = await asyncio.wait_for(
                reader.readexactly(length), self.read_timeout
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, TimeoutError):
            # Slowloris guard: the promised body never fully arrived.
            return _error_result(
                408,
                f"request body stalled: {length} bytes promised, fewer "
                f"received within {self.read_timeout:g}s",
            )
        return await loop.run_in_executor(
            self._executor, self.router.handle, "POST", path, headers, raw
        )

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        """Answer a request that cannot be routed, then let the caller close."""
        await self._write_result(writer, _error_result(status, message), False, True)

    async def _write_result(
        self,
        writer: asyncio.StreamWriter,
        result: RouteResult,
        head_only: bool,
        close: bool,
    ) -> None:
        lines = [
            f"HTTP/1.1 {result.status} {_status_phrase(result.status)}",
            f"Content-Type: {result.content_type}",
            f"Content-Length: {len(result.body)}",
        ]
        for name, value in result.headers:
            lines.append(f"{name}: {value}")
        lines.append("Connection: close" if close else "Connection: keep-alive")
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if not head_only:
            payload += result.body
        writer.write(payload)
        try:
            await writer.drain()
        except ConnectionError:
            pass
