"""HTTP-layer tests: the connection handler over canned bytes, and the
threaded server on loopback."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.request

import pytest

from repro.core.durable import compact_json
from repro.faults.chaos import verify_service_log
from repro.service import (
    BackendFaultSpec,
    MonotonicClock,
    PredictionService,
    ResilienceConfig,
    ServiceBackend,
    ServiceFaultInjector,
    ServiceRequest,
    demo_profiles,
)
from repro.service.http import _MAX_BODY_BYTES, _SOCKET_TIMEOUT_S, make_server
from repro.service.resilience import DEADLINE_EPSILON_S

PREDICT_PARAMS = {"profile": "kmeans", "data_nodes": 2, "compute_nodes": 4}


@pytest.fixture()
def live_service(request):
    """On the real clock; an indirect parameter is its keyword arguments."""
    return PredictionService(
        demo_profiles(), clock=MonotonicClock(), **getattr(request, "param", {})
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
        self.pending = request_bytes
        self.sends = []
        self.options = []
        self.timeouts = []

    def recv(self, size):
        chunk, self.pending = self.pending[:size], self.pending[size:]
        return chunk

    def sendall(self, data):
        self.sends.append(bytes(data))

    def settimeout(self, timeout):
        self.timeouts.append(timeout)

    def setsockopt(self, *args):
        self.options.append(args)


def handle_bytes(service, request_bytes):
    """Run the connection handler over canned bytes, without a network."""
    server = make_server(service, "127.0.0.1", 0)
    try:
        sock = RecordingSocket(request_bytes)
        server.RequestHandlerClass(sock, ("127.0.0.1", 0), server)
    finally:
        server.server_close()
    return sock


GET_HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\n\r\n"
GET_METRICS = b"GET /v1/metrics HTTP/1.1\r\n\r\n"


class TestRoutes:
    """What a well-framed request is answered with."""

    def test_predict_round_trip(self, service):
        (sent,) = handle_bytes(
            service, post("/v1/predict", {"params": PREDICT_PARAMS})
        ).sends
        (status, headers, body), = read_responses(sent)
        assert (status, headers["Content-Type"]) == (200, "application/json")
        assert (body["outcome"], body["request_id"]) == ("ok", "http-1")
        assert body["total"] > 0.0

    def test_request_ids_are_counter_based(self, service):
        predict = post("/v1/predict", {"params": PREDICT_PARAMS})
        sock = handle_bytes(service, predict * 3)
        ids = [read_responses(sent)[0][2]["request_id"] for sent in sock.sends]
        assert ids == ["http-1", "http-2", "http-3"]

    def test_metrics_route(self, service):
        predict = post("/v1/predict", {"params": PREDICT_PARAMS})
        *_, sent = handle_bytes(service, predict + GET_METRICS).sends
        (status, _, body), = read_responses(sent)
        assert status == 200
        assert body["admission"] == {"admitted": 1, "shed": 0}


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
            + GET_HEALTHZ                             # 200, no body read
            + b"POST /v1/predict HTTP/1.1\r\nContent-Length: "
            + str(_MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n",  # 413
        )
        assert sock.options == [(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)]
        assert sock.timeouts == [_SOCKET_TIMEOUT_S] == [10.0]
        statuses = []
        for sent in sock.sends:
            # One send is one complete response: parsing it leaves nothing.
            (status, headers, body), = read_responses(sent)
            assert sent.startswith(b"HTTP/1.1 %d " % status)
            # The whole body is the compact encoding: one line of JSON.
            assert sent.endswith(b"\r\n\r\n" + compact_json(body).encode("utf-8"))
            assert headers["Content-Type"] == "application/json"
            assert headers["Server"] == "repro-serve"
            assert headers["Date"].endswith(" GMT")
            # Keep-alive unless the request stream can no longer be trusted.
            assert headers.get("Connection") == ("close" if status == 413 else None)
            statuses.append(status)
            if status == 429:
                assert float(headers["Retry-After"]) > 0.0
                assert headers["Retry-After"] == f"{body['retry_after_s']:.6f}"
        assert statuses == [200, 429, 400, 404, 200, 413]

    @pytest.mark.parametrize(
        "request_bytes, status, error",
        [
            (b"BREW /v1/predict HTTP/1.1\r\n\r\n", 501, "Unsupported method ('BREW')"),
            (b"PATCH /v1/predict HTTP/1.1\r\n\r\n", 501, "Unsupported method ('PATCH')"),
            (b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505, "Invalid HTTP version (2.0)"),
            (b"GET /v1/healthz HTTP/1.1 extra\r\n\r\n", 400, "Bad request syntax"),
            (b"GET /v1/healthz\r\n\r\n", 400, "Bad request syntax"),
            (b"GET /v1/healthz HTTP/1.1\r\nno colon\r\n\r\n", 400, "Bad header line"),
            (b"GET /v1/healthz HTTP/1.1\r\n folded: x\r\n\r\n", 400, "Bad header line"),
            (b"GET /v1/healthz HTTP/1.1\r\nA: b\rc\r\n\r\n", 400, "Bad header line"),
            (b"GET /v1/healthz HTTP/1.1\r\nA: b\0c\r\n\r\n", 400, "Bad header line"),
            (b"GET /v1/healthz HTTP/1.1\nHost: t\n\n", 400, "bare LF"),
            (b"GET /v1/healthz HTTP/1.1\r\nHost: t\n\r\n", 400, "bare LF"),
            (b"GET /" + b"a" * 65532 + b" HTTP/1.1\r\n\r\n", 414, "Request-URI Too Long"),
            (b"GET /" + b"a" * 70000, 414, "Request-URI Too Long"),  # no CRLF yet
            (b"GET / HTTP/1.1\r\nA: " + b"b" * 65534 + b"\r\n\r\n", 431, "Line too long"),
            (b"GET / HTTP/1.1\r\n" + b"A: b\r\n" * 101 + b"\r\n", 431, "Too many headers"),
            (b"GET / HTTP/1.1\r\n" + b"A: b\r\n" * 50000, 431, "Request head too large"),
        ],
        ids=[
            "501-BREW", "501-PATCH", "505", "400-words", "400-0.9", "400-colon",
            "400-fold", "400-CR", "400-NUL", "400-LF", "400-LF2", "414",
            "414-open", "431-line", "431-count", "431-head",
        ],
    )
    def test_framing_error_is_one_send_and_close(
        self, service, request_bytes, status, error
    ):
        sock = handle_bytes(service, request_bytes + GET_HEALTHZ)
        (sent,) = sock.sends  # the follow-up request is never answered
        (got, headers, body), = read_responses(sent)
        assert got == status
        assert headers["Connection"] == "close"
        assert set(body) == {"error"} and error in body["error"]
        assert len(service.log) == 0  # refused before routing

    def test_limits_admit_what_is_exactly_at_them(self, service):
        line = b"GET /" + b"a" * 65522 + b" HTTP/1.1"
        assert len(line) == 65536
        sock = handle_bytes(
            service,
            line + b"\r\n" + b"A: b\r\n" * 99 + b"B: " + b"c" * 65533 + b"\r\n\r\n",
        )
        (sent,) = sock.sends
        (status, headers, _), = read_responses(sent)
        assert status == 404 and "Connection" not in headers

    def test_head_reply_has_no_content(self, service):
        (sent,) = handle_bytes(service, b"HEAD /v1/healthz HTTP/1.1\r\n\r\n").sends
        head, _, content = sent.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ") and content == b""

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


CLOSING_PREDICT = post(
    "/v1/predict", {"params": PREDICT_PARAMS}, "Connection: close\r\n"
)


class TestMalformedFraming:
    """Bad framing is answered with JSON, then the connection closes."""

    @pytest.mark.parametrize(
        "declared",
        # Byte b2 is SUPERSCRIPT TWO in Latin-1: str.isdigit() accepts it, int()
        # does not.
        [b"abc", b"-5", b"1e3", b"+83", b"1_0", b"8 3", b"", b"\xb2", "٨٣".encode()],
        ids=["abc", "-5", "1e3", "plus", "underscore", "inner-space", "empty",
             "superscript", "arabic-indic"],
    )
    def test_bad_content_length_is_400(self, live_server, declared, capfd):
        (status, headers, body), = raw_exchange(
            live_server,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: " + declared
            + b"\r\n\r\n{}" + GET_HEALTHZ,
        )
        assert status == 400
        assert headers["Connection"] == "close"
        assert "Content-Length must be an integer >= 0" in body["error"]
        assert "Traceback" not in capfd.readouterr().err

    def test_content_length_headers_must_agree(self, live_server, capfd):
        body = json.dumps({"params": PREDICT_PARAMS}).encode()
        head = b"POST /v1/predict HTTP/1.1\r\nContent-Length: %d\r\n"
        (status, headers, reply), = raw_exchange(
            live_server, head % 10 + b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        assert (status, headers["Connection"]) == (400, "close")
        assert reply == {"error": "Content-Length headers disagree"}
        agreeing, = raw_exchange(
            live_server,
            head % len(body) + b"Content-Length: %d\r\nConnection: close\r\n\r\n"
            % len(body) + body,
        )
        assert agreeing[0] == 200
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("digits", ["1048577", "9" * 5000], ids=["limit+1", "5000-digits"])
    def test_oversized_content_length_is_413(self, live_server, digits, capfd):
        (status, headers, body), = raw_exchange(
            live_server,
            f"POST /v1/predict HTTP/1.1\r\nContent-Length: {digits}\r\n\r\n".encode()
            + GET_HEALTHZ,
        )
        assert (status, headers["Connection"]) == (413, "close")
        assert body == {"error": "request body too large"}
        assert "Traceback" not in capfd.readouterr().err

    def test_transfer_encoding_is_501_and_the_chunks_are_never_parsed(
        self, live_server, live_service, capfd
    ):
        chunk = json.dumps({"params": PREDICT_PARAMS}).encode()
        (status, headers, body), = raw_exchange(
            live_server,
            b"POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk),
        )
        assert (status, headers["Connection"]) == (501, "close")
        assert body == {"error": "Transfer-Encoding is not supported"}
        assert len(live_service.log) == 0  # not answered as an empty-body predict
        assert "Traceback" not in capfd.readouterr().err

    def test_a_declared_body_is_consumed_on_get(self, live_server):
        first, second = raw_exchange(
            live_server,
            b"GET /v1/healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
            + b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert first[0] == second[0] == 200
        assert first[2] == second[2] == {"status": "ok"}

    def test_non_numeric_deadline_is_400_and_keeps_alive(self, live_server, capfd):
        # float() would take the second to fifth; the last overflows it.
        for deadline in ["abc", True, "0.5", " 5 ", "1_0", [1], {"s": 1}, 10**400]:
            bad = post(
                "/v1/predict", {"params": PREDICT_PARAMS, "deadline_s": deadline}
            )
            first, second = raw_exchange(live_server, bad + CLOSING_PREDICT)
            assert first[0] == 400
            assert "Connection" not in first[1]
            assert "deadline_s must be a number" in first[2]["error"]
            assert second[0] == 200
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("deadline", ["NaN", "Infinity", "-1", "0"])
    def test_unusable_numeric_deadline_is_still_a_settled_400(
        self, live_server, live_service, deadline
    ):
        body = b'{"params": %s, "deadline_s": %s}' % (
            json.dumps(PREDICT_PARAMS).encode(), deadline.encode()
        )
        first, second = raw_exchange(
            live_server, post("/v1/predict", body) + CLOSING_PREDICT
        )
        assert (first[0], first[2]["outcome"]) == (400, "rejected")
        assert "deadline budget must be positive and finite" in first[2]["error"]
        assert second[0] == 200 and len(live_service.log) == 2

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


class TestRetainedBehaviour:
    """What the stdlib shell did for a client, the service's own still does."""

    def test_limits_over_a_live_socket(self, live_server):
        for request_bytes, status in [
            (b"GET /" + b"a" * 65523 + b" HTTP/1.1\r\n\r\n", 414),  # 65,537 bytes
            (b"GET / HTTP/1.1\r\n" + b"A: b\r\n" * 101 + b"\r\n", 431),
            (b"GET /v1/healthz HTTP/2.0\r\n\r\n", 505),
            (b"PATCH /v1/predict HTTP/1.1\r\n\r\n", 501),
        ]:
            (got, headers, body), = raw_exchange(live_server, request_bytes)
            assert (got, headers["Connection"]) == (status, "close")
            assert set(body) == {"error"}

    def test_expect_100_continue_gets_the_interim_response_first(self, live_server):
        body = json.dumps({"params": PREDICT_PARAMS}).encode()
        host, port = live_server.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/predict HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        (status, _, reply), = read_responses(raw)
        assert (status, reply["outcome"]) == (200, "ok")

    def test_http_1_0_closes_unless_keep_alive(self, live_server):
        get = b"GET /v1/healthz HTTP/1.0\r\n%s\r\n"
        (only,) = raw_exchange(live_server, get % b"" + get % b"")
        assert only[0] == 200 and "Connection" not in only[1]
        responses = raw_exchange(
            live_server, get % b"Connection: Keep-Alive\r\n" + get % b""
        )
        assert [r[0] for r in responses] == [200, 200]

    def test_pipelined_requests_are_answered_in_order(self, live_server):
        responses = raw_exchange(
            live_server,
            GET_HEALTHZ
            + b"GET /v1/nope HTTP/1.1\r\n\r\n"
            + b"GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert [r[0] for r in responses] == [200, 404, 200]
        assert responses[0][2] == {"status": "ok"} and "admission" in responses[2][2]

    def test_idle_connection_is_dropped_after_the_socket_timeout(
        self, live_server, monkeypatch, capfd
    ):
        monkeypatch.setattr("repro.service.http._SOCKET_TIMEOUT_S", 0.2)
        host, port = live_server.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost:")  # and then nothing
            start = time.perf_counter()
            assert sock.recv(65536) == b""  # closed on us, nothing sent
            assert 0.1 < time.perf_counter() - start < 4.0
        assert capfd.readouterr().err == ""


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
        # No 429s (and the clients send a deadline no scheduler stall on
        # a shared box reaches): the subject is what stays behind admission.
        [{"config": ResilienceConfig(admission_rate=1.0e6, admission_burst=64.0)}],
        indirect=True,
        ids=["admission-raised"],
    )
    def test_four_connections_at_saturation_are_all_answered_fresh(
        self, live_server, live_service
    ):
        """ROADMAP 5(a): more than two connections, admission out of the
        way.  Behind the gateway's one mutex real work never overlaps, so
        nothing is stale and nothing is refused."""
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
                    conn.request(
                        "POST", path,
                        body=json.dumps({"params": params, "deadline_s": 10.0}),
                    )
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
            ServiceRequest(
                body["request_id"], path[len("/v1/"):], params, deadline_s=10.0
            )
            for path, params, _, body in answered
        ]
        assert verify_service_log(service, submitted) == []
        bound = 10.0 + DEADLINE_EPSILON_S
        assert all(body["latency_s"] <= bound for _, _, _, body in answered)

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


class TestLiveChaos:
    @pytest.fixture()
    def live_service(self):
        """Seeded slow, crashing and corrupt backends; admission low enough
        that four closed-loop clients are shed."""
        faults = BackendFaultSpec(
            slow_probability=0.2, crash_probability=0.2, corrupt_probability=0.1
        )
        return PredictionService(
            demo_profiles(),
            clock=MonotonicClock(),
            config=ResilienceConfig(admission_rate=400.0, admission_burst=16.0),
            backend=ServiceBackend(injector=ServiceFaultInjector(7, faults)),
        )

    def test_four_clients_under_faults_keep_every_invariant(
        self, live_server, live_service
    ):
        """The chaos invariants over real sockets, threads and time: the
        log verifies, every 429 says when to retry, and a breaker opens."""
        host, port = live_server.server_address[:2]
        pairs = [(d, c) for d in (1, 2, 4) for c in (d, 2 * d, 4 * d)]
        replies = [[] for _ in range(4)]
        errors = []

        def client(k):
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                for i in range(200):
                    if i % 5 == 4:
                        endpoint, params = "what-if", {
                            "profile": "kmeans", "pairs": pairs[k : k + 2]
                        }
                    else:
                        data_nodes, compute_nodes = pairs[(i + k) % len(pairs)]
                        endpoint, params = "predict", dict(
                            PREDICT_PARAMS,
                            data_nodes=data_nodes,
                            compute_nodes=compute_nodes,
                        )
                    conn.request(
                        "POST", f"/v1/{endpoint}",
                        body=json.dumps({"params": params, "deadline_s": 10.0}),
                    )
                    response = conn.getresponse()
                    replies[k].append((
                        endpoint, params, response.status,
                        response.getheader("Retry-After"),
                        json.loads(response.read()),
                    ))
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

        service = live_service
        answered = [reply for per_client in replies for reply in per_client]
        assert len(answered) == 800 == len(service.log)
        submitted = [
            ServiceRequest(body["request_id"], endpoint, params, deadline_s=10.0)
            for endpoint, params, _, _, body in answered
        ]
        assert verify_service_log(service, submitted) == []
        shed = [
            (retry_after, body)
            for _, _, status, retry_after, body in answered
            if status == 429
        ]
        assert shed and all(
            retry_after == f"{body['retry_after_s']:.6f}" for retry_after, body in shed
        )
        assert service.breakers.total_opens() >= 1
        assert all(service.backend.injector.injected.values())  # all three kinds
