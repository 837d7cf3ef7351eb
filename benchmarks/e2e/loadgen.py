"""HTTP load generation for serve_hot and serve_http.

One thread per keep-alive connection, in the benchmark process, talking to
the program process over loopback.  Each request carries the tenant key and
an ``X-Bench-Request: <trace>/<span>`` header naming the client span it
belongs to; the program ignores it unless traced.  Times are
``time.monotonic()``, the clock the program's tracer uses.

Open loop: requests are due on a fixed schedule and are timed from their due
time, so a stall delays — and is charged to — every later request.  A worker
that falls behind sends at once; a worker that is early sleeps until the due
time, and how late it wakes is the generator's lag.

Closed loop: each connection sends the next request of a shared list as soon
as its previous reply has been read.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from workloads import REQUEST_HEADER, TENANT_KEY


@dataclass
class Sent:
    """One request as the client saw it.

    ``due`` is when the schedule wanted it sent (its send time in a closed
    loop), ``ready`` when its worker was free to send it, ``send`` when it was
    sent and ``done`` when the whole response had been read.
    """

    key: str
    pairs: list
    due: float
    ready: float
    send: float
    done: float
    status: int
    body: bytes

    @property
    def trace(self) -> str:
        return f"r{self.key}"

    @property
    def span(self) -> str:
        return f"c{self.key}"

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.send - max(self.due, self.ready)

    def resolutions(self) -> list[dict]:
        """The response's resolutions; empty unless the request succeeded."""
        if self.status != 200:
            return []
        return json.loads(self.body).get("resolutions", [])


def payload(pairs) -> bytes:
    """``POST /resolve`` body for labeled or unlabeled pairs (labels never sent)."""
    return json.dumps(
        {
            "pairs": [
                {
                    "pair_id": pair.pair_id,
                    "left": dict(pair.left.values),
                    "right": dict(pair.right.values),
                }
                for pair in pairs
            ]
        }
    ).encode("utf-8")


class Connection:
    """One keep-alive HTTP/1.1 connection to the program."""

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)

    def post(self, path: str, body: bytes, trace: str = "", span: str = "") -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json", "X-API-Key": TENANT_KEY}
        if trace:
            headers[REQUEST_HEADER] = f"{trace}/{span}"
        self._http.request("POST", path, body=body, headers=headers)
        response = self._http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._http.close()


def _run_workers(connections: list[Connection], work) -> None:
    errors: list[BaseException] = []

    def guarded(connection: Connection) -> None:
        try:
            work(connection)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("load generator worker did not finish")


def _bodies(requests: list[list]) -> list[bytes]:
    """Encoded bodies, each distinct pair list encoded once."""
    encoded: dict[tuple[str, ...], bytes] = {}
    bodies = []
    for pairs in requests:
        key = tuple(pair.pair_id for pair in pairs)
        if key not in encoded:
            encoded[key] = payload(pairs)
        bodies.append(encoded[key])
    return bodies


def open_loop(
    connections: list[Connection],
    requests: list[list],
    offsets: list[float],
    key_prefix: str = "",
) -> list[Sent]:
    """Send ``requests[i]`` ``offsets[i]`` seconds after the start, over the
    connections; one :class:`Sent` per request, in schedule order."""
    bodies = _bodies(requests)
    sent: list[Sent | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    origin = time.monotonic() + 0.05

    def work(connection: Connection) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            ready = time.monotonic()
            due = origin + offsets[index]
            if due > ready:
                time.sleep(due - ready)
            key = f"{key_prefix}{index}"
            send = time.monotonic()
            status, body = connection.post("/resolve", bodies[index], f"r{key}", f"c{key}")
            sent[index] = Sent(key, requests[index], due, ready, send, time.monotonic(), status, body)

    _run_workers(connections, work)
    return [record for record in sent if record is not None]


def closed_loop(
    connections: list[Connection],
    requests: list[list],
    key_prefix: str = "",
) -> list[Sent]:
    """Send every request of ``requests``, each connection taking the next
    one as soon as its previous reply is read; in sending order."""
    bodies = _bodies(requests)
    sent: list[Sent | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def work(connection: Connection) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            key = f"{key_prefix}{index}"
            send = time.monotonic()
            status, body = connection.post("/resolve", bodies[index], f"r{key}", f"c{key}")
            sent[index] = Sent(key, requests[index], send, send, send, time.monotonic(), status, body)

    _run_workers(connections, work)
    return sorted((record for record in sent if record is not None), key=lambda r: r.send)
