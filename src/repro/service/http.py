"""Stdlib HTTP and ASGI adapters over :class:`PredictionService`.

The service core is single-threaded and deterministic; these adapters
are the thin shells that face real sockets:

- :func:`asgi_app` wraps a service as an ASGI 3 application, so any
  ASGI server (or an in-process test harness speaking the protocol)
  can drive it without this repo importing one.
- :func:`make_server` builds a ``ThreadingHTTPServer`` whose handlers
  serialize into the shared service under one mutex, with explicit
  socket timeouts (the REP009 contract: no unbounded waits).  Every
  response leaves as one ``status line + headers + body`` buffer in a
  single ``sendall`` on a ``TCP_NODELAY`` socket: a head and a small
  body written separately on a keep-alive connection stall ~40 ms on
  Nagle x delayed-ACK.

Routes (both adapters)::

    POST /v1/predict            {"params": {...}, "deadline_s": 0.25}
    POST /v1/what-if            {"params": {...}}
    POST /v1/broker-submit      {"params": {...}}
    POST /v1/campaign-status    {"params": {...}}
    GET  /v1/metrics
    GET  /v1/healthz

Responses carry the pipeline's verdict: 200 (fresh or ``stale: true``),
429 with ``Retry-After`` (shed), 503 (bulkhead full / breaker open),
504 (deadline unmeetable), 400/404/413/501 (client errors), 500 (a
handler bug: answered, never a silent EOF).  Every body is canonical
JSON, including the errors the stdlib shell raises itself.  The
threaded server keeps the connection alive except after a framing
error, a 413, a 500 or a stdlib-raised error, where the request
stream can no longer be trusted: those carry ``Connection: close``.
Request ids are counter-based (``http-1``, ``http-2``, …) —
deterministic, no UUIDs (REP102).
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple

from repro.core.durable import canonical_json
from repro.service.app import ENDPOINTS, PredictionService, ServiceRequest
from repro.service.errors import ServiceError
from repro.simgrid.errors import ConfigurationError

__all__ = ["ServiceGateway", "asgi_app", "make_server"]

_MAX_BODY_BYTES = 1 << 20
_SOCKET_TIMEOUT_S = 10.0


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
        try:
            deadline_s = float(deadline) if deadline is not None else None
        except (TypeError, ValueError):
            return 400, {
                "error": f"deadline_s must be a number, got {deadline!r}"
            }, None
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            return 400, {
                "error": "params must be a JSON object, got "
                f"{type(params).__name__}"
            }, None
        with self._lock:
            self._counter += 1
            request_id = str(
                payload.get("request_id") or f"http-{self._counter}"
            )
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
    """Shared routing for both adapters."""
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
        if len(raw_body) > _MAX_BODY_BYTES:
            return 413, {"error": "request body too large"}, None
        try:
            payload = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except ValueError as exc:  # bad UTF-8, bad JSON, a 5000-digit int
            return 400, {"error": f"request body is not JSON: {exc}"}, None
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, None
        return gateway.dispatch(endpoint, payload)
    return 404, {"error": f"no route for {method} {path}"}, None


# ----------------------------------------------------------------------
# ASGI
# ----------------------------------------------------------------------


def asgi_app(
    service: PredictionService,
) -> Callable[..., Awaitable[None]]:
    """Wrap a service as an ASGI 3 application."""
    gateway = ServiceGateway(service)

    async def app(
        scope: Mapping[str, Any],
        receive: Callable[[], Awaitable[Mapping[str, Any]]],
        send: Callable[[Mapping[str, Any]], Awaitable[None]],
    ) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await send({"type": "lifespan.shutdown.complete"})
                    return
            return
        if scope["type"] != "http":
            raise ServiceError(
                f"unsupported ASGI scope '{scope['type']}'"
            )
        body = b""
        while True:
            message = await receive()
            if message["type"] == "http.request":
                body += message.get("body", b"")
                if not message.get("more_body", False):
                    break
            elif message["type"] == "http.disconnect":
                return
        status, payload, retry_after = _route(
            gateway, scope["method"].upper(), scope["path"], body
        )
        encoded = canonical_json(payload).encode("utf-8")
        headers = [
            (b"content-type", b"application/json"),
            (b"content-length", str(len(encoded)).encode("ascii")),
        ]
        if retry_after is not None:
            headers.append(
                (b"retry-after", f"{retry_after:.6f}".encode("ascii"))
            )
        await send(
            {"type": "http.response.start", "status": status,
             "headers": headers}
        )
        await send({"type": "http.response.body", "body": encoded})

    return app


# ----------------------------------------------------------------------
# Stdlib threaded server
# ----------------------------------------------------------------------


def make_server(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """A ready-to-serve ``ThreadingHTTPServer`` over the service.

    The caller owns the lifecycle: ``serve_forever(poll_interval=...)``
    on a thread, ``shutdown()`` + ``server_close()`` to stop.  Port 0
    picks a free port (``server.server_address`` has the real one); an
    address that cannot be bound is a :class:`ConfigurationError`.
    """
    gateway = ServiceGateway(service)

    class Handler(BaseHTTPRequestHandler):
        timeout = _SOCKET_TIMEOUT_S
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _send(
            self,
            status: int,
            payload: Mapping[str, Any],
            retry_after: Optional[float] = None,
            close: bool = False,
        ) -> None:
            """Write the whole response with one ``sendall``."""
            body = canonical_json(payload).encode("utf-8")
            head = [
                f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            if retry_after is not None:
                head.append(f"Retry-After: {retry_after:.6f}")
            if close:
                head.append("Connection: close")
                self.close_connection = True
            if self.command == "HEAD":
                body = b""
            head.extend(("", ""))
            self.wfile.write("\r\n".join(head).encode("latin-1") + body)

        def _respond(self, raw_body: bytes) -> None:
            try:
                reply = _route(gateway, self.command, self.path, raw_body)
            except Exception:
                # A handler bug must reach the client as an answer, not
                # as EOF; the traceback goes where socketserver puts it.
                self.server.handle_error(self.request, self.client_address)
                self._send(500, {"error": "internal server error"}, close=True)
            else:
                self._send(*reply)

        def send_error(
            self,
            code: int,
            message: Optional[str] = None,
            explain: Optional[str] = None,
        ) -> None:
            """The stdlib's own errors (bad request line, 414, 431, 501)
            as JSON in one write; the stream is suspect, so close."""
            error = message or HTTPStatus(code).phrase
            self._send(code, {"error": error}, close=True)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._respond(b"")

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                error = f"Content-Length must be an integer >= 0: {declared[:32]!r}"
                self._send(400, {"error": error}, close=True)
            elif length > _MAX_BODY_BYTES:
                # Unread, the body would be parsed as the next request.
                self._send(413, {"error": "request body too large"}, close=True)
            else:
                self._respond(self.rfile.read(length))

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the request log is the service's, not stderr's

    try:
        server = ThreadingHTTPServer((host, port), Handler)
    except (OSError, OverflowError) as exc:
        # Port in use or out of range, unresolvable host: the operator's
        # input, so a ReproError and not a traceback.
        raise ConfigurationError(
            f"cannot serve on {host}:{port}: {exc}"
        ) from exc
    server.timeout = _SOCKET_TIMEOUT_S
    server.daemon_threads = True
    return server
