"""Asyncio HTTP/1.1 front end for a :class:`ResolutionService`.

:class:`AsyncServiceHTTPServer` owns the wire — connections, framing,
deadlines — and hands every parsed request to the transport-agnostic
:class:`~repro.service.http.ServiceRouter`.  Each connection is an
:class:`asyncio.Protocol`: ``data_received`` appends to one buffer, finds the
end of the request head in one pass and parses it with the pure
:func:`~repro.service.wire.parse_head`, so no task, stream or ``wait_for``
is made per request.

* **Bounded** — at most ``max_connections`` connections are served at once;
  the rest wait, unread, for a free slot.
* **Strictly framed** — by the rules of :mod:`repro.service.wire`, so a
  keep-alive connection never reads part of one request as the next; a
  framing error, or a head cut off, is answered once, then the connection
  closed.
* **One timer** — the request line is awaited under ``idle_timeout``, the
  rest of the head under one ``read_timeout`` and the body under another; a
  stalled head or body is answered 408.
* **In order** — one request at a time; reading pauses once pipelined input
  passes 64 KiB, and no request is served while the write buffer is full.
* **Drained** — :meth:`shutdown` stops accepting, closes idle connections,
  and gives in-flight requests ``drain_timeout`` seconds (answered
  ``Connection: close``) before aborting them.

A ``POST /resolve`` of up to :data:`LOOP_RESOLVE_MAX_BYTES` is admitted on
the loop (:meth:`~repro.service.http.ServiceRouter.admit` refuses a full
queue at once) and answered inside the same ``data_received`` call when its
futures are done (cache hits, finished joins), else once they signal the
loop or :data:`RESOLVE_TIMEOUT_SECONDS` pass.  A larger ``/resolve``,
``POST /bulk`` and the ``GET`` routes run on a private thread pool.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.service.http import (
    RESOLVE_TIMEOUT_SECONDS,
    Admission,
    RouteResult,
    ServiceRouter,
    _error_result,
)
from repro.service.service import ResolutionService
from repro.service.wire import (
    HEAD_END,
    MAX_HEAD_BYTES,
    MAX_LINE_BYTES,
    blank_prefix,
    body_error,
    encode_response,
    is_head_request,
    parse_head,
    parse_request_line,
)

#: Default cap on concurrently serviced connections.
DEFAULT_MAX_CONNECTIONS = 128
#: Default deadline for reading one request's headers or body.
DEFAULT_READ_TIMEOUT_SECONDS = 10.0
#: Default patience for an idle keep-alive connection between requests.
DEFAULT_IDLE_TIMEOUT_SECONDS = 65.0
#: Default grace period for in-flight requests during shutdown.
DEFAULT_DRAIN_TIMEOUT_SECONDS = 5.0

#: Largest ``POST /resolve`` body admitted on the event loop.  Parsing it
#: stalls every connection on the loop, and the loop refuses a full queue at
#: once, so only small requests are served there: 8 KiB is about 25 pairs of
#: the bundled datasets, and fewer than the default ``queue_capacity`` (256)
#: of even the smallest valid pairs.  A larger body is admitted on the
#: thread pool, where ``submit`` may wait for queue space.
LOOP_RESOLVE_MAX_BYTES = 8 * 1024

# Connection phases: the first three read a request.
_IDLE, _HEAD, _BODY, _BUSY, _QUEUED, _CLOSED = range(6)


class AsyncServiceHTTPServer:
    """An asyncio HTTP/1.1 server bound to one :class:`ResolutionService`,
    its event loop on a daemon thread (:meth:`serve_in_background`).

    Args:
        service: the (started) service answering the requests.
        host / port: bind address; port ``0`` picks a free one (:attr:`address`).
        max_connections: cap on connections serviced concurrently.
        read_timeout: seconds a client gets to deliver each request's
            headers, and separately its promised body, before a 408/close.
        idle_timeout: seconds a keep-alive connection may sit idle between
            requests before the server closes it.
        drain_timeout: seconds :meth:`shutdown` waits for in-flight requests.
        verbose: log one line per request to stderr.
        max_workers: size of the thread pool serving ``POST /bulk``, the
            ``GET``/``HEAD`` routes and ``POST /resolve`` bodies over
            :data:`LOOP_RESOLVE_MAX_BYTES` (default: the service config's
            ``max_batch_size``, at least 8).
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
        self._host, self._port = host, port
        if max_workers is None:
            max_workers = max(8, service.config.max_batch_size)
        self._executor = ThreadPoolExecutor(max_workers, "repro-aio-dispatch")
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._bound: tuple[str, int] | None = None
        self._startup_error: BaseException | None = None
        self._connections: set[_Connection] = set()
        self._queued: deque[_Connection] = deque()  # waiting for a slot
        self._active = 0  # connections holding a slot
        self._drained: asyncio.Event | None = None  # made when shutdown drains
        self.requests_served = 0

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
        if self._thread is not None:  # pragma: no branch - set just above
            self._thread.join()

    def shutdown(self) -> None:
        """Drain in-flight requests, stop the loop, join the thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):  # the loop just closed
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 10.0)
            self._thread = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _run(self, started: threading.Event) -> None:
        loop = self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve(started))
        except BaseException as error:  # pragma: no cover - defensive
            if started.is_set():
                raise
            self._startup_error = error
            started.set()
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None

    async def _serve(self, started: threading.Event) -> None:
        self._stop, self._drained = asyncio.Event(), None
        try:
            server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), self._host, self._port
            )
        except OSError as error:
            self._startup_error = error
            started.set()
            return
        self._bound = server.sockets[0].getsockname()[:2]
        started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            # Connections with nothing in flight close at once; busy ones
            # once answered, or are aborted after the grace period.
            self._drained = asyncio.Event()
            for connection in list(self._connections):
                if connection.request is None:
                    connection.close()
            self._check_drained()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._drained.wait(), self.drain_timeout)
            for connection in list(self._connections):
                connection.close(abort=True)
            await asyncio.sleep(0)  # let the aborted transports report it
            await server.wait_closed()
            self._bound = None

    def _check_drained(self) -> None:
        if self._drained is not None and all(c.request is None for c in self._connections):
            self._drained.set()

    def _accept(self, connection: _Connection) -> None:
        self._connections.add(connection)
        if self._drained is not None:
            connection.close()
        elif self._active < self.max_connections:
            self._active += 1
            connection.start()
        else:
            self._queued.append(connection)

    def _release(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if connection.held_slot:
            self._active -= 1
            if self._queued and self._drained is None:
                self._active += 1
                self._queued.popleft().start()
        elif connection in self._queued:
            self._queued.remove(connection)
        self._check_drained()


class _Connection(asyncio.Protocol):
    """One HTTP/1.1 connection, answering its requests one at a time."""

    _transport: asyncio.Transport
    _phase = _QUEUED
    held_slot = _eof = _reading_paused = _writing_paused = False
    _scanned = 0  # buffer bytes already searched for the end of the head
    _line_start = 0  # where the buffer's last, unfinished line starts
    _timer: asyncio.TimerHandle | None = None
    _deadline: float | None = None  # the current phase's
    #: ``(method, path, version, headers)`` of the request being answered.
    request: tuple[str, str, str, dict[str, str]] | None = None
    _length = 0  # its body's length
    _admission: Admission | None = None  # its pending /resolve admission
    _pending = 0  # and that admission's futures not done yet

    def __init__(self, server: AsyncServiceHTTPServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._server._accept(self)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._phase <= _BODY and not self._writing_paused:
            self._process()
        elif len(self._buffer) > MAX_LINE_BYTES and not self._reading_paused:
            self._reading_paused = not self._eof  # nothing is read after EOF
            if self._reading_paused:
                self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self.data_received(b"")  # the phase now decides what the end means
        return True  # keep the transport open to answer

    def connection_lost(self, exc: Exception | None) -> None:
        self._phase = _CLOSED
        if self._timer is not None:
            self._timer.cancel()
        self._server._release(self)

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        if self._phase <= _BODY:
            self._process()

    def start(self) -> None:
        """Take a connection slot and serve what the client has sent."""
        self.held_slot = True
        if self._phase != _CLOSED:
            self._phase = _IDLE
            self._arm(self._server.idle_timeout)
            self._process()

    def close(self, abort: bool = False) -> None:
        self._phase, self._deadline = _CLOSED, None
        (self._transport.abort if abort else self._transport.close)()

    def _arm(self, seconds: float | None) -> None:
        """Give the current phase a deadline ``seconds`` away (or none); the
        timer moves only to come earlier, and re-arms itself if it was."""
        if seconds is None:
            self._deadline = None
            return
        deadline = self._deadline = self._loop.time() + seconds
        timer = self._timer
        if timer is None or timer.when() > deadline:
            if timer is not None:
                timer.cancel()
            self._timer = self._loop.call_at(deadline, self._on_timer)

    def _on_timer(self) -> None:
        deadline, self._timer = self._deadline, None
        if deadline is None:
            return
        if self._loop.time() < deadline:
            self._timer = self._loop.call_at(deadline, self._on_timer)
        elif self._phase == _IDLE:
            self.close()  # an idle keep-alive connection expired
        elif self._phase == _HEAD:
            seconds = self._server.read_timeout
            error = _error_result(408, f"request headers stalled for {seconds:g}s")
            self._reject_head(bytes(self._buffer[: self._line_start - 1]), error)
        elif self._phase == _BODY:
            self._body_stalled()
        elif self._admission is not None:
            self._finish_admission()

    def _process(self) -> None:
        """Serve every complete request in the buffer, in order."""
        if self._reading_paused and not self._writing_paused:
            self._reading_paused = False
            self._transport.resume_reading()
        while self._phase <= _BODY and not self._writing_paused:
            if not (self._read_body() if self._phase == _BODY else self._read_head()):
                return

    def _read_head(self) -> bool:
        """Take the next head off the buffer; ``False`` while there is none."""
        buffer = self._buffer
        if self._phase == _IDLE and (blank := blank_prefix(buffer)):
            del buffer[:blank]
            self._scanned = 0
        end = HEAD_END.search(buffer, max(self._scanned - 2, 0))
        if end is None:
            self._head_incomplete()
            return False
        head = bytes(buffer[: end.start()])
        del buffer[: end.end()]
        self._scanned = self._line_start = 0
        parsed = parse_head(head)
        if isinstance(parsed, RouteResult):
            self._write(parsed, is_head_request(head), True)
            return False
        self.request = parsed
        length = int(parsed[3].get("content-length", "0"))
        error = body_error(parsed[0], length)
        if error is not None:
            self._respond(error)
        elif length:
            self._phase, self._length = _BODY, length
            if len(buffer) < length:
                self._arm(self._server.read_timeout)
        else:
            self._run_in_pool(None)
        return True

    def _head_incomplete(self) -> None:
        """Check the part of a head received so far, or its end of stream."""
        buffer = self._buffer
        self._line_start = max(self._line_start, buffer.rfind(b"\n", self._scanned) + 1)
        self._scanned = len(buffer)
        if self._phase == _IDLE and self._line_start:
            # The request line is in: answer its error now, or time the rest.
            parsed = parse_request_line(buffer[: buffer.find(b"\n")].decode("latin-1"))
            if isinstance(parsed, RouteResult):
                return self._write(parsed, False, True)
            self._phase = _HEAD
            self._arm(self._server.read_timeout)
        if len(buffer) - self._line_start > MAX_LINE_BYTES or len(buffer) > MAX_HEAD_BYTES:
            # parse_head finds the line too long, unless the head is.
            self._reject_head(bytes(buffer), _error_result(400, "request head too long"))
        elif self._eof and self._phase == _HEAD:
            error = _error_result(400, "request headers truncated")
            self._reject_head(bytes(buffer[: self._line_start - 1]), error)
        elif self._eof and buffer:
            # Cut off before its method is known: a HEAD client reads no body.
            head_only = b"HEAD ".startswith(bytes(buffer[:5]))
            self._write(_error_result(400, "request line truncated"), head_only, True)
        elif self._eof:
            self.close()  # the client closed between requests

    def _reject_head(self, head: bytes, error: RouteResult) -> None:
        """Answer a head that never ended: its first bad line, else ``error``."""
        parsed = parse_head(head)
        self._write(error if isinstance(parsed, tuple) else parsed, is_head_request(head), True)

    def _read_body(self) -> bool:
        buffer, length = self._buffer, self._length
        if len(buffer) < length:
            if self._eof:
                self._body_stalled()
            return False
        body = bytes(buffer[:length])
        del buffer[:length]
        path, headers = self.request[1], self.request[3]  # type: ignore[index]
        if path != "/resolve" or length > LOOP_RESOLVE_MAX_BYTES:
            self._run_in_pool(body)
            return True
        admission = self._server.router.admit(path, headers, body)
        pending = [future for future in admission.futures if not future.done()]
        if not pending:
            self._respond(self._server.router.finish(admission))
            return True
        self._phase, self._admission, self._pending = _BUSY, admission, len(pending)
        self._arm(RESOLVE_TIMEOUT_SECONDS)
        resolved = functools.partial(self._resolved, admission)
        for future in pending:
            asyncio.wrap_future(future, loop=self._loop).add_done_callback(resolved)
        return True

    def _body_stalled(self) -> None:  # the slowloris guard
        seconds, length = self._server.read_timeout, self._length
        message = f"{length} bytes promised, fewer received within {seconds:g}s"
        self._respond(_error_result(408, f"request body stalled: {message}"))

    def _run_in_pool(self, body: bytes | None) -> None:
        method, path, _, headers = self.request  # type: ignore[misc]
        self._phase = _BUSY
        self._arm(None)
        server = self._server
        future = self._loop.run_in_executor(
            server._executor, server.router.handle, method, path, headers, body
        )
        future.add_done_callback(self._pooled)

    def _pooled(self, future: asyncio.Future) -> None:
        if future.cancelled() or future.exception() is not None:
            return self.close()  # a failed or cancelled route drops the peer
        self._respond(future.result())
        self._process()

    def _resolved(self, admission: Admission, _: asyncio.Future) -> None:
        if admission is self._admission:
            self._pending -= 1
            if not self._pending:
                self._finish_admission()

    def _finish_admission(self) -> None:
        """Answer the pending ``/resolve``; a future still pending is 503."""
        admission, self._admission = self._admission, None
        self._respond(self._server.router.finish(admission))  # type: ignore[arg-type]
        self._process()

    def _respond(self, result: RouteResult) -> None:
        """Answer the current request, then read the next or close."""
        server = self._server
        method, path, version, headers = self.request  # type: ignore[misc]
        self.request = None
        # HTTP/1.1 keeps alive, HTTP/1.0 closes, unless the Connection header
        # says otherwise; error paths (result.close) and a drain always close.
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = version == "HTTP/1.0" and connection == "keep-alive"
        close = result.close or not keep_alive or server._drained is not None
        server.requests_served += 1
        if server.verbose:  # pragma: no cover - log plumbing
            print(f"repro-aio: {method} {path} -> {result.status}", file=sys.stderr)
        if self._phase != _CLOSED:
            self._write(result, method == "HEAD", close)
        if self._phase != _CLOSED:
            self._phase = _IDLE
            self._arm(server.idle_timeout)
        server._check_drained()

    def _write(self, result: RouteResult, head_only: bool, close: bool) -> None:
        if not self._transport.is_closing():
            self._transport.write(encode_response(result, head_only, close))
        if close:
            self.close()
