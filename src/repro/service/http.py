"""The HTTP shell over :class:`PredictionService`.

The service core is single-threaded and deterministic; :func:`make_server`
builds the threaded ``socketserver`` server that faces real sockets, its
connections serialized into the shared service under one mutex
(:class:`ServiceGateway`).  The HTTP/1.1 framing is this module's own:
one receive buffer per connection under an explicit socket timeout (the
REP009 contract: no unbounded waits), :func:`parse_head` over its bytes,
and every response as one ``status line + headers + body`` buffer in a
single ``sendall`` on a ``TCP_NODELAY`` socket: a head and a small body
written separately on a keep-alive connection stall ~40 ms on Nagle x
delayed-ACK.

Routes::

    POST /v1/predict            {"params": {...}, "deadline_s": 0.25}
    POST /v1/what-if            {"params": {...}}
    POST /v1/broker-submit      (501: no broker runs behind the service)
    POST /v1/campaign-status    {"params": {...}}
    GET  /v1/metrics
    GET  /v1/healthz

Responses carry the pipeline's verdict: 200 (fresh or ``stale: true``),
429 with ``Retry-After`` (shed), 503 (breaker open), 504 (deadline
unmeetable), 400/404 (client errors), 500 (a handler bug: answered,
never a silent EOF).  Every body is one line of compact
sorted-key JSON (:func:`~repro.core.durable.compact_json`), framing
errors included.  The server keeps the connection alive
(pipelined requests are answered in order) except after a 500 or a
:class:`FramingError` — 400, 413, 414, 431, 501, 505; DESIGN.md §15 has
the rules — where the request stream can no longer be trusted: those
carry ``Connection: close``.  Request ids are counter-based
(``http-1``, ``http-2``, …) — deterministic, no UUIDs (REP002) — unless
the body carries its own ``request_id``: 1–128 visible ASCII characters
outside the ``http-`` prefix, anything else a 400.
"""

from __future__ import annotations

import json
import math
import re
import socket
import socketserver
import threading
from http import HTTPStatus
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.core.durable import compact_json
from repro.service.app import ENDPOINTS, PredictionService, ServiceRequest
from repro.service.clock import HttpDate
from repro.service.errors import ServiceError
from repro.simgrid.errors import ConfigurationError

__all__ = ["ServiceGateway", "make_server"]

_MAX_BODY_BYTES = 1 << 20
_MAX_LINE_BYTES = 65536  # the request line (414) and each header line (431)
_MAX_HEADERS = 100
_MAX_HEAD_BYTES = 1 << 18
_SOCKET_TIMEOUT_S = 10.0
_REQUEST_LINE = re.compile(
    r"([!-~]+) ([!-~]+) HTTP/([0-9]{1,10})\.([0-9]{1,10})"
).fullmatch
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+").fullmatch  # a field name
#: A client's own request id: the ``http-`` ids are the gateway's.
_CLIENT_ID = re.compile(r"(?!http-)[!-~]{1,128}").fullmatch
#: Every status line, reason phrase included, built once.
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}
_DATE = HttpDate()


class ServiceGateway:
    """Thread-safe front door: one mutex, counter-based request ids."""

    def __init__(self, service: PredictionService) -> None:
        self.service = service
        self._lock = threading.Lock()
        self._counter = 0

    def dispatch(
        self,
        endpoint: str,
        payload: Mapping[str, Any],
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """Handle one request; returns (status, body, retry_after_s)."""
        deadline = payload.get("deadline_s")
        deadline_s = None
        try:
            # A JSON number only: float() also takes true, "0.5" and " 5 ".
            if type(deadline) in (int, float):
                deadline_s = float(deadline)
        except OverflowError:  # an integer no float can hold, 10**400
            pass
        if deadline is not None and deadline_s is None:
            return 400, {
                "error": f"deadline_s must be a number, got {deadline!r:.40}"
            }, None
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            return 400, {
                "error": "params must be a JSON object, got "
                f"{type(params).__name__}"
            }, None
        client_id = payload.get("request_id")
        if client_id is not None and not (
            isinstance(client_id, str) and _CLIENT_ID(client_id)
        ):
            return 400, {
                "error": "request_id must be 1-128 visible ASCII characters, "
                f"not starting with 'http-', got {client_id!r:.40}"
            }, None
        with self._lock:
            self._counter += 1
            request_id = client_id or f"http-{self._counter}"
            request = ServiceRequest(
                request_id=request_id,
                endpoint=endpoint,
                params=params,
                deadline_s=deadline_s,
            )
            response = self.service.handle(request)
        body = dict(response.body)
        body["request_id"] = response.request_id
        body["outcome"] = response.outcome
        body["latency_s"] = response.latency_s
        return response.status, body, response.retry_after_s

    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            return self.service.metrics()


def _route(
    gateway: ServiceGateway, method: str, path: str, raw_body: bytes
) -> Tuple[int, Dict[str, Any], Optional[float]]:
    """One request, already framed by :func:`parse_head`, to its answer."""
    if method == "GET" and path == "/v1/healthz":
        return 200, {"status": "ok"}, None
    if method == "GET" and path == "/v1/metrics":
        return 200, gateway.metrics(), None
    if method == "POST" and path.startswith("/v1/"):
        endpoint = path[len("/v1/"):]
        if endpoint not in ENDPOINTS:
            return 404, {
                "error": f"unknown endpoint '{endpoint}'; known: "
                f"{', '.join(ENDPOINTS)}"
            }, None
        try:
            payload = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except ValueError as exc:  # bad UTF-8, bad JSON, a 5000-digit int
            return 400, {"error": f"request body is not JSON: {exc}"}, None
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, None
        return gateway.dispatch(endpoint, payload)
    return 404, {"error": f"no route for {method} {path}"}, None


# ----------------------------------------------------------------------
# Threaded server: the service's own HTTP/1.1 framing
# ----------------------------------------------------------------------


class FramingError(ServiceError):
    """``(status, message)``: these bytes are not a request this shell
    serves.  Answered with that status, then the connection closes."""


class ParsedHead(NamedTuple):
    method: str
    target: str
    version: Tuple[int, int]
    headers: Dict[str, str]  # names lower-cased, repeats joined with ", "
    length: int  # declared body bytes
    keep_alive: bool
    consumed: int  # head + declared body: where the next request starts


def parse_head(buffer: bytes | bytearray) -> Optional[ParsedHead]:
    """The one definition of a request: pure, over a connection's bytes.

    ``None`` while the head is incomplete, a :class:`ParsedHead` once it
    ends (the body may still be arriving), or :class:`FramingError` with
    the status to answer before closing.  Lines end in CRLF only; a body
    is exactly ``Content-Length`` (``1*DIGIT``) bytes, on any method.
    """
    end = buffer.find(b"\r\n\r\n")
    size = end if end >= 0 else len(buffer)
    if size > _MAX_LINE_BYTES and buffer.find(b"\r\n", 0, _MAX_LINE_BYTES + 2) < 0:
        raise FramingError(414, "Request-URI Too Long")
    if size > _MAX_HEAD_BYTES:
        raise FramingError(431, "Request head too large")
    if buffer.count(b"\n", 0, size) != buffer.count(b"\r\n", 0, size):
        # Checked before the head is complete: an LF-only client is told
        # now, not dropped at the socket timeout.
        raise FramingError(400, "Bad request syntax (bare LF in the head)")
    if end < 0:
        return None
    request_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
    match = _REQUEST_LINE(request_line)
    if match is None:
        raise FramingError(400, f"Bad request syntax ({request_line[:64]!r})")
    method, target = match.group(1, 2)
    version = (int(match.group(3)), int(match.group(4)))
    if version >= (2, 0):
        raise FramingError(505, "Invalid HTTP version (%d.%d)" % version)
    if len(lines) > _MAX_HEADERS:
        raise FramingError(431, "Too many headers")
    headers: Dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if len(line) > _MAX_LINE_BYTES:
            raise FramingError(431, "Line too long")
        if not (colon and _TOKEN(name)) or "\r" in value or "\0" in value:
            raise FramingError(400, f"Bad header line ({line[:64]!r})")
        name, value = name.lower(), value.strip(" \t")
        previous = headers.get(name)
        if previous is not None and name != "content-length":
            value = f"{previous}, {value}"
        elif previous is not None and value != previous:
            raise FramingError(400, "Content-Length headers disagree")
        headers[name] = value
    if method not in ("GET", "POST"):
        raise FramingError(501, f"Unsupported method ({method!r})")
    if "transfer-encoding" in headers:
        # Unread, the chunks would be parsed as the next request.
        raise FramingError(501, "Transfer-Encoding is not supported")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise FramingError(
            400, f"Content-Length must be an integer >= 0: {declared[:32]!r}"
        )
    # Digits are counted first: int() refuses a 5000-digit value.
    oversized = len(declared.lstrip("0")) > len(str(_MAX_BODY_BYTES))
    length = _MAX_BODY_BYTES + 1 if oversized else int(declared)
    if length > _MAX_BODY_BYTES:
        raise FramingError(413, "request body too large")  # answered unread
    options = [o.strip() for o in headers.get("connection", "").lower().split(",")]
    keep_alive = "close" not in options and (
        version >= (1, 1) or "keep-alive" in options
    )
    return ParsedHead(
        method, target, version, headers, length, keep_alive, end + 4 + length
    )


def _response(
    status: int,
    payload: Mapping[str, Any],
    retry_after: Optional[float] = None,
    close: bool = False,
) -> bytes:
    """Status line + headers + compact-JSON body: the one buffer sent."""
    body = compact_json(payload).encode("utf-8")
    head = (
        f"{_STATUS_LINES[status]}Server: repro-serve\r\nDate: {_DATE()}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    )
    if retry_after is not None:
        # delay-seconds is 1*DIGIT (RFC 9110 §10.2.3): rounded up, so a
        # client never retries early; the body keeps the exact wait.
        head += f"Retry-After: {math.ceil(retry_after)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + body


class _Connection(socketserver.BaseRequestHandler):
    """One accepted socket: one receive buffer, requests answered in
    order (so pipelining works), one ``sendall`` per response."""

    server: "_Server"

    def handle(self) -> None:
        sock, buffer = self.request, bytearray()
        sock.settimeout(_SOCKET_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        try:
            try:
                while self._answer_one(sock, buffer):
                    pass
            except FramingError as exc:
                status, message = exc.args
                reply = _response(status, {"error": message}, close=True)
                if buffer.startswith(b"HEAD "):  # a HEAD reply has no content
                    reply = reply[: reply.index(b"\r\n\r\n") + 4]
                sock.sendall(reply)
        except OSError:
            pass  # timed out, reset or gone: nobody is left to answer

    def _answer_one(self, sock: socket.socket, buffer: bytearray) -> bool:
        """Serve the next request on the connection; false to close it."""
        while not buffer or (head := parse_head(buffer)) is None:
            if not (chunk := sock.recv(65536)):
                return False
            buffer += chunk
        expect = head.headers.get("expect", "").lower()
        if expect == "100-continue" and head.version >= (1, 1):
            sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        while len(buffer) < head.consumed:
            if not (chunk := sock.recv(65536)):
                return False
            buffer += chunk
        body = bytes(buffer[head.consumed - head.length : head.consumed])
        del buffer[: head.consumed]
        try:
            reply = _response(
                *_route(self.server.gateway, head.method, head.target, body)
            )
        except Exception:
            # A handler bug must reach the client as an answer, not as
            # EOF; the traceback goes where socketserver puts it.
            self.server.handle_error(sock, self.client_address)
            sock.sendall(
                _response(500, {"error": "internal server error"}, close=True)
            )
            return False
        sock.sendall(reply)
        return head.keep_alive


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    gateway: ServiceGateway


def make_server(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> socketserver.ThreadingTCPServer:
    """A ready-to-serve threaded HTTP/1.1 server over the service.

    The caller owns the lifecycle: ``serve_forever(poll_interval=...)``
    on a thread, ``shutdown()`` + ``server_close()`` to stop.  Port 0
    picks a free port (``server.server_address`` has the real one); an
    address that cannot be bound is a :class:`ConfigurationError`.
    """
    try:
        server = _Server((host, port), _Connection)
    except (OSError, OverflowError) as exc:
        # Port in use or out of range, unresolvable host: the operator's
        # input, so a ReproError and not a traceback.
        raise ConfigurationError(
            f"cannot serve on {host}:{port}: {exc}"
        ) from exc
    server.gateway = ServiceGateway(service)
    return server
