"""HTTP/1.1 message syntax for the service's front end, as pure functions.

:func:`parse_head` turns the bytes of one request head into ``(method,
path, version, headers)`` or the error :class:`~repro.service.http.RouteResult`
that must answer it, and :func:`encode_response` turns a ``RouteResult`` into
the bytes put on the wire.  Neither touches a socket, so the framing rules
are tested as tables; :mod:`repro.service.aio` owns the connections.
"""

from __future__ import annotations

import re
from http import HTTPStatus

from repro.service.http import MAX_BODY_BYTES, RouteResult, _error_result

#: Longest request or header line, its line feed excluded.
MAX_LINE_BYTES = 64 * 1024

#: Most distinct header fields in one request.
MAX_HEADERS = 128

#: Largest head buffered before it ends: every header line at full length.
MAX_HEAD_BYTES = (MAX_HEADERS + 1) * (MAX_LINE_BYTES + 1)

#: The empty line (CRLF or bare LF) ending a head, from the line feed before.
HEAD_END = re.compile(rb"\n\r?\n")

#: Bytes ``str.strip`` removes from a latin-1 line, and the blank lines of
#: them that may come before a request line (RFC 9112 §2.2).
_BLANK = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0"
_BLANK_LINES = re.compile(rb"(?:[\t\x0b\x0c\r\x1c-\x1f \x85\xa0]*\n)*")

#: An RFC 9110 ``token``: the only valid header field name.
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}


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


def blank_prefix(data: bytes | bytearray) -> int:
    """Length of the stray blank lines that ``data`` starts with."""
    if not data or data[0] not in _BLANK:
        return 0
    return _BLANK_LINES.match(data).end()  # type: ignore[union-attr] - always matches


def parse_request_line(line: str) -> tuple[str, str, str] | RouteResult:
    """``(method, path, version)`` of a request line, or the error."""
    if len(line) > MAX_LINE_BYTES:
        return _error_result(400, "request line too long")
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return _error_result(400, f"malformed request line {line.strip()!r}")
    return parts[0], parts[1], parts[2]


def parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]] | RouteResult:
    """Parse one request head, or return the error that must answer it.

    ``head`` runs from the request line to the line feed before the empty
    line that ends it; lines end in CRLF or a bare LF.  Returns ``(method,
    path, version, headers)`` with lower-cased header names.  The framing
    headers are checked line by line, before the dict would let a later
    duplicate overwrite an earlier one: a request whose body length is
    ambiguous is never routed.
    """
    request_line, *lines = head.decode("latin-1").split("\n")
    parsed = parse_request_line(request_line)
    if isinstance(parsed, RouteResult):
        return parsed
    headers: dict[str, str] = {}
    for line in lines:
        if len(line) > MAX_LINE_BYTES:
            return _error_result(400, "header line too long")
        text = line.rstrip("\r")
        name, sep, value = text.partition(":")
        # RFC 9112 §5.1: a field name is a token, with no whitespace before
        # the colon.
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
        if len(headers) > MAX_HEADERS:
            return _error_result(400, "too many headers")
    return (*parsed, headers)


def body_error(method: str, length: int) -> RouteResult | None:
    """The error answering a parsed head before its body, if any: a ``POST``
    frames a body of 1..:data:`MAX_BODY_BYTES` bytes, a ``GET`` or ``HEAD``
    none (an ignored body would be read as the next request), and no other
    method is served."""
    if method == "POST":
        if 0 < length <= MAX_BODY_BYTES:
            return None
        return _error_result(400, f"body must be 1..{MAX_BODY_BYTES} bytes")
    if method not in ("GET", "HEAD"):
        return _error_result(501, f"unsupported method {method!r}")
    return _error_result(400, f"{method} request must not carry a body") if length else None


def is_head_request(head: bytes) -> bool:
    """Whether ``head`` starts with a valid ``HEAD`` request line: an error
    answering it then carries no body."""
    parsed = parse_request_line(head.partition(b"\n")[0].decode("latin-1"))
    return not isinstance(parsed, RouteResult) and parsed[0] == "HEAD"


def encode_response(result: RouteResult, head_only: bool, close: bool) -> bytes:
    """The wire bytes of ``result``; ``head_only`` omits the body, not its
    length, and ``close`` picks the ``Connection`` header."""
    status = result.status
    head = "".join([
        _STATUS_LINES.get(status) or f"HTTP/1.1 {status} Unknown\r\n",
        f"Content-Type: {result.content_type}\r\n",
        f"Content-Length: {len(result.body)}\r\n",
        *(f"{name}: {value}\r\n" for name, value in result.headers),
        "Connection: close\r\n\r\n" if close else "Connection: keep-alive\r\n\r\n",
    ]).encode("latin-1")
    return head if head_only else head + result.body
