"""HTTP-layer tests: ASGI protocol in-process, threaded server on loopback."""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.request

import pytest

from repro.core.durable import canonical_json
from repro.faults.chaos import verify_service_log
from repro.service import (
    MonotonicClock,
    PredictionService,
    ResilienceConfig,
    ServiceRequest,
    demo_profiles,
)
from repro.service.http import _MAX_BODY_BYTES, asgi_app, make_server

PREDICT_PARAMS = {"profile": "kmeans", "data_nodes": 2, "compute_nodes": 4}


def run_asgi(app, method, path, body=b""):
    """Drive one request through the ASGI protocol without a server."""
    sent = []
    received = [
        {"type": "http.request", "body": body, "more_body": False}
    ]

    async def receive():
        return received.pop(0)

    async def send(message):
        sent.append(message)

    scope = {"type": "http", "method": method, "path": path}
    asyncio.run(app(scope, receive, send))
    start = next(m for m in sent if m["type"] == "http.response.start")
    payload = b"".join(
        m.get("body", b"") for m in sent if m["type"] == "http.response.body"
    )
    headers = {
        name.decode(): value.decode() for name, value in start["headers"]
    }
    return start["status"], headers, json.loads(payload)


@pytest.fixture()
def app():
    return asgi_app(PredictionService(demo_profiles()))


class TestAsgi:
    def test_healthz(self, app):
        status, _, body = run_asgi(app, "GET", "/v1/healthz")
        assert status == 200
        assert body == {"status": "ok"}

    def test_predict_round_trip(self, app):
        payload = json.dumps(
            {
                "params": {
                    "profile": "kmeans",
                    "data_nodes": 2,
                    "compute_nodes": 4,
                }
            }
        ).encode()
        status, headers, body = run_asgi(
            app, "POST", "/v1/predict", payload
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert body["outcome"] == "ok"
        assert body["total"] > 0.0
        assert body["request_id"] == "http-1"

    def test_request_ids_are_counter_based(self, app):
        payload = json.dumps(
            {"params": {"profile": "kmeans", "data_nodes": 1,
                        "compute_nodes": 1}}
        ).encode()
        ids = [
            run_asgi(app, "POST", "/v1/predict", payload)[2]["request_id"]
            for _ in range(3)
        ]
        assert ids == ["http-1", "http-2", "http-3"]

    def test_shed_request_carries_retry_after_header(self):
        from repro.service import ResilienceConfig

        service = PredictionService(
            demo_profiles(),
            config=ResilienceConfig(admission_rate=1.0, admission_burst=1.0),
        )
        app = asgi_app(service)
        payload = json.dumps(
            {"params": {"profile": "kmeans", "data_nodes": 1,
                        "compute_nodes": 1}}
        ).encode()
        run_asgi(app, "POST", "/v1/predict", payload)
        status, headers, body = run_asgi(
            app, "POST", "/v1/predict", payload
        )
        assert status == 429
        assert float(headers["retry-after"]) > 0.0
        assert body["outcome"] == "shed"

    def test_bad_json_is_400(self, app):
        status, _, body = run_asgi(app, "POST", "/v1/predict", b"{ torn")
        assert status == 400
        assert "not JSON" in body["error"]

    def test_unknown_route_is_404(self, app):
        status, _, _ = run_asgi(app, "POST", "/v1/forecast", b"{}")
        assert status == 404
        status, _, _ = run_asgi(app, "GET", "/nope")
        assert status == 404

    def test_metrics_route(self, app):
        status, _, body = run_asgi(app, "GET", "/v1/metrics")
        assert status == 200
        assert "admission" in body

    def test_lifespan_protocol(self, app):
        sent = []
        received = [
            {"type": "lifespan.startup"},
            {"type": "lifespan.shutdown"},
        ]

        async def receive():
            return received.pop(0)

        async def send(message):
            sent.append(message)

        asyncio.run(app({"type": "lifespan"}, receive, send))
        assert [m["type"] for m in sent] == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]

    def test_non_numeric_deadline_is_400(self, app):
        for deadline in ("abc", [1], {"s": 1}):
            payload = json.dumps(
                {"params": PREDICT_PARAMS, "deadline_s": deadline}
            ).encode()
            status, _, body = run_asgi(app, "POST", "/v1/predict", payload)
            assert status == 400
            assert "deadline_s must be a number" in body["error"]


@pytest.fixture()
def live_service(request):
    """On the real clock; an indirect parameter is its ResilienceConfig."""
    return PredictionService(
        demo_profiles(),
        clock=MonotonicClock(),
        config=getattr(request, "param", None),
    )


@pytest.fixture()
def live_server(live_service):
    server = make_server(live_service, "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def post(path, payload, extra_headers=""):
    """One raw POST with a correct Content-Length."""
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    head = f"POST {path} HTTP/1.1\r\nHost: t\r\n{extra_headers}"
    return f"{head}Content-Length: {len(body)}\r\n\r\n".encode() + body


def read_responses(raw):
    """Split a byte stream into (status, headers, json body) responses."""
    out = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        out.append(
            (int(status_line.split()[1]), headers, json.loads(rest[:length]))
        )
        raw = rest[length:]
    return out


class RecordingSocket:
    """A connected-socket double: canned request bytes in, sends counted."""

    def __init__(self, request_bytes):
        self.rfile = io.BytesIO(request_bytes)
        self.sends = []
        self.options = []

    def makefile(self, mode, bufsize=None):
        return self.rfile

    def sendall(self, data):
        self.sends.append(bytes(data))

    def settimeout(self, timeout):
        pass

    def setsockopt(self, *args):
        self.options.append(args)


def handle_bytes(service, request_bytes):
    """Run the stdlib handler over canned bytes, without a network."""
    server = make_server(service, "127.0.0.1", 0)
    try:
        sock = RecordingSocket(request_bytes)
        server.RequestHandlerClass(sock, ("127.0.0.1", 0), server)
    finally:
        server.server_close()
    return sock


class TestOneSendPerResponse:
    """The write side: every response is one pre-joined ``sendall``."""

    def test_each_status_is_exactly_one_send(self):
        service = PredictionService(
            demo_profiles(),
            config=ResilienceConfig(admission_rate=1.0, admission_burst=1.0),
        )
        predict = post("/v1/predict", {"params": PREDICT_PARAMS})
        sock = handle_bytes(
            service,
            predict                                   # 200
            + predict                                 # 429: bucket is empty
            + post("/v1/predict", b"{ torn")          # 400
            + post("/v1/forecast", {})                # 404
            + b"GET /v1/healthz HTTP/1.1\r\n\r\n"     # 200, no body read
            + b"POST /v1/predict HTTP/1.1\r\nContent-Length: "
            + str(_MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n",  # 413
        )
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options
        statuses = []
        for sent in sock.sends:
            # One send is one complete response: parsing it leaves nothing.
            (status, headers, body), = read_responses(sent)
            assert sent.startswith(b"HTTP/1.1 %d " % status)
            assert sent.endswith(canonical_json(body).encode("utf-8"))
            assert headers["Content-Type"] == "application/json"
            assert "Server" in headers and "Date" in headers
            # Keep-alive unless the request stream can no longer be trusted.
            assert headers.get("Connection") == ("close" if status == 413 else None)
            statuses.append(status)
            if status == 429:
                assert float(headers["Retry-After"]) > 0.0
                assert headers["Retry-After"] == f"{body['retry_after_s']:.6f}"
        assert statuses == [200, 429, 400, 404, 200, 413]

    def test_stdlib_errors_are_json_single_send_and_close(self, service):
        sock = handle_bytes(
            service,
            b"BREW /v1/predict HTTP/1.1\r\n\r\n"          # 501
            + b"GET /v1/healthz HTTP/1.1\r\n\r\n",        # never answered
        )
        (sent,) = sock.sends
        (status, headers, body), = read_responses(sent)
        assert status == 501
        assert headers["Connection"] == "close"
        assert "BREW" in body["error"]

    def test_handler_bug_is_a_500_not_an_eof(self, service, monkeypatch, capsys):
        def boom(request):
            raise RuntimeError("planted handler bug")

        monkeypatch.setattr(service, "handle", boom)
        predict = post("/v1/predict", {"params": PREDICT_PARAMS})
        sock = handle_bytes(service, predict + predict)
        (sent,) = sock.sends  # the connection closed after the first
        (status, headers, body), = read_responses(sent)
        assert status == 500
        assert headers["Connection"] == "close"
        assert body == {"error": "internal server error"}
        assert "planted handler bug" in capsys.readouterr().err


def raw_exchange(server, request_bytes):
    """Send bytes over a real socket; read until the server closes."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(request_bytes)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return read_responses(b"".join(chunks))


class TestMalformedFraming:
    """Bad framing is answered with JSON, then the connection closes."""

    @pytest.mark.parametrize(
        "declared",
        ["abc", "-5", "1e3", pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_bad_content_length_is_400(self, live_server, declared, capfd):
        (status, headers, body), = raw_exchange(
            live_server,
            f"POST /v1/predict HTTP/1.1\r\nContent-Length: {declared}"
            "\r\n\r\n{}".encode(),
        )
        assert status == 400
        assert headers["Connection"] == "close"
        assert "Content-Length must be an integer >= 0" in body["error"]
        assert "Traceback" not in capfd.readouterr().err

    def test_non_numeric_deadline_is_400_and_keeps_alive(self, live_server):
        bad = post("/v1/predict", {"params": PREDICT_PARAMS, "deadline_s": "abc"})
        good = post(
            "/v1/predict", {"params": PREDICT_PARAMS}, "Connection: close\r\n"
        )
        first, second = raw_exchange(live_server, bad + good)
        assert first[0] == 400
        assert "deadline_s must be a number" in first[2]["error"]
        assert second[0] == 200

    def test_413_closes_instead_of_parsing_the_body_as_a_request(
        self, live_server
    ):
        oversized = b"x" * (_MAX_BODY_BYTES + 4096)
        follow_up = post("/v1/predict", {"params": PREDICT_PARAMS})
        responses = raw_exchange(
            live_server, post("/v1/predict", oversized) + follow_up
        )
        (status, headers, body), = responses  # no stray 414 page behind it
        assert status == 413
        assert headers["Connection"] == "close"
        assert body == {"error": "request body too large"}


class TestThreadedServer:
    @pytest.fixture()
    def server_url(self, live_server):
        host, port = live_server.server_address[:2]
        return f"http://{host}:{port}"

    def test_live_predict_over_loopback(self, server_url):
        request = urllib.request.Request(
            f"{server_url}/v1/predict",
            data=json.dumps(
                {
                    "params": {
                        "profile": "apriori",
                        "data_nodes": 2,
                        "compute_nodes": 4,
                    }
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
            body = json.loads(response.read())
        assert body["outcome"] == "ok"
        assert body["total"] > 0.0

    def test_live_metrics_and_health(self, server_url):
        with urllib.request.urlopen(
            f"{server_url}/v1/healthz", timeout=10.0
        ) as response:
            assert json.loads(response.read()) == {"status": "ok"}
        with urllib.request.urlopen(
            f"{server_url}/v1/metrics", timeout=10.0
        ) as response:
            assert response.status == 200

    def test_keep_alive_round_trip_is_not_a_delayed_ack_timer(
        self, live_server
    ):
        """A head and a body sent as two segments cost ~44 ms a request."""
        host, port = live_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        body = json.dumps({"params": PREDICT_PARAMS})
        latencies = []
        try:
            for _ in range(50):
                start = time.perf_counter()
                conn.request("POST", "/v1/predict", body=body)
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020

    @pytest.mark.parametrize(
        "live_service",
        [
            # No 429s, and no 504 from a scheduler stall on a shared box:
            # the subject is the default bulkheads.
            ResilienceConfig(
                admission_rate=1.0e6, admission_burst=64.0, default_deadline_s=10.0
            )
        ],
        indirect=True,
        ids=["admission-raised"],
    )
    def test_four_connections_at_saturation_are_all_answered_fresh(
        self, live_server, live_service
    ):
        """ROADMAP 5(a): more than two connections, admission out of the
        way, default bulkheads.  Behind the gateway's one mutex real work
        never overlaps, so nothing is stale and nothing is refused."""
        service = live_service
        host, port = live_server.server_address[:2]
        pairs = [(d, c) for d in (1, 2, 4) for c in (d, 2 * d, 4 * d)]
        replies = [[] for _ in range(4)]
        errors = []

        def client(k):
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                for i in range(200):
                    if i % 5 == 4:
                        path, params = "/v1/what-if", {
                            "profile": "vortex", "pairs": pairs[k : k + 4]
                        }
                    else:
                        data_nodes, compute_nodes = pairs[(i + k) % len(pairs)]
                        path, params = "/v1/predict", dict(
                            PREDICT_PARAMS,
                            data_nodes=data_nodes,
                            compute_nodes=compute_nodes,
                        )
                    conn.request("POST", path, body=json.dumps({"params": params}))
                    response = conn.getresponse()
                    replies[k].append(
                        (path, params, response.status, json.loads(response.read()))
                    )
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        if errors:
            raise errors[0]

        answered = [reply for per_client in replies for reply in per_client]
        assert len(answered) == 800 == len(service.log)
        assert {(status, body["stale"]) for _, _, status, body in answered} == {
            (200, False)
        }
        submitted = [
            ServiceRequest(body["request_id"], path[len("/v1/"):], params)
            for path, params, _, body in answered
        ]
        assert verify_service_log(service, submitted) == []
        bound = service.config.default_deadline_s + service.config.deadline_epsilon_s
        assert all(body["latency_s"] <= bound for _, _, _, body in answered)
        assert [b.refused for b in service.bulkheads.values()] == [0, 0, 0, 0]

    def test_concurrent_keep_alive_load_settles_exactly_once(
        self, live_server, live_service
    ):
        """Two real threads on the real clock (ROADMAP 6a, first step)."""
        host, port = live_server.server_address[:2]
        pairs = [(d, c) for d in (1, 2, 4) for c in (d, 2 * d, 4 * d)]
        replies = [[], []]
        errors = []

        def client(k):
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                for i in range(200):
                    data_nodes, compute_nodes = pairs[(i + k) % len(pairs)]
                    params = dict(
                        PREDICT_PARAMS,
                        data_nodes=data_nodes,
                        compute_nodes=compute_nodes,
                    )
                    conn.request(
                        "POST", "/v1/predict", body=json.dumps({"params": params})
                    )
                    response = conn.getresponse()
                    replies[k].append(
                        (params, response.status, json.loads(response.read()))
                    )
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        if errors:
            raise errors[0]

        answered = replies[0] + replies[1]
        assert len(answered) == 400
        assert len(live_service.log) == len(answered)
        # Exactly-once, shed => 429, latency <= deadline + eps, re-derived
        # from the log the threads actually produced.
        submitted = [
            ServiceRequest(body["request_id"], "predict", params)
            for params, _, body in answered
        ]
        assert verify_service_log(live_service, submitted) == []

        served = [(p, body) for p, status, body in answered if status == 200]
        assert served
        expected = {}
        for params, body in served:
            key = (params["data_nodes"], params["compute_nodes"])
            if key not in expected:
                # A fresh service per point: an idle pipeline answers fresh.
                expected[key] = PredictionService(demo_profiles()).handle(
                    ServiceRequest("oracle", "predict", params)
                ).body
            # A degraded (stale) reply adds its age; the prediction is the same.
            for field in expected[key].keys() - {"stale"}:
                assert body[field] == expected[key][field]
