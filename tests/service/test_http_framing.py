"""Hypothesis properties of the service's own HTTP/1.1 framing.

``parse_head`` is the one parser in this repo that faces the network
(ROADMAP 4(a)).  Three laws, fuzzed rather than example-tested:

1. Whatever the bytes — arbitrary, or a valid request with a header
   dropped, duplicated or retyped, the request line corrupted, the whole
   thing truncated — it returns ``None``, returns a ``ParsedHead``, or
   raises ``FramingError`` with one of six statuses.  Nothing else
   escapes, and it never claims more than head + declared length.
2. A valid request cut anywhere inside its head is *incomplete*, never
   an error: a slow sender is not a malformed one.
3. A stream of valid requests written to a live connection in arbitrary
   pieces is answered exactly as the same stream written whole, and
   every request that reached the service settled exactly once.
"""

from __future__ import annotations

import socket
import threading

from hypothesis import given, settings, strategies as st

from repro.faults.chaos import verify_service_log
from repro.service import PredictionService, ServiceRequest, demo_profiles
from repro.service.http import (
    _MAX_BODY_BYTES,
    FramingError,
    ParsedHead,
    make_server,
    parse_head,
)

from .test_http import post, read_responses

FRAMING_STATUSES = {400, 413, 414, 431, 501, 505}
PROFILES = demo_profiles()


def check_parse(data: bytes):
    """Law 1 on one buffer; returns what ``parse_head`` returned."""
    try:
        head = parse_head(data)
    except FramingError as exc:
        status, message = exc.args
        assert status in FRAMING_STATUSES and message
        return exc
    end = data.find(b"\r\n\r\n")
    if head is None:
        assert end < 0
        return None
    assert isinstance(head, ParsedHead)
    assert 0 <= head.length <= _MAX_BODY_BYTES
    assert head.consumed == end + 4 + head.length
    assert head.method in ("GET", "POST")
    assert head.length == int(head.headers.get("content-length", "0"))
    assert all(name == name.lower() for name in head.headers)
    return head


HEADER_POOL = [
    (b"Host", b"grid.example:8080"),
    (b"Content-Length", b"17"),
    (b"Content-Length", b"3"),
    (b"Connection", b"close"),
    (b"Connection", b"keep-alive"),
    (b"Expect", b"100-continue"),
    (b"Transfer-Encoding", b"chunked"),
    (b"Accept-Encoding", b"identity"),
    (b"Content-Type", b"application/json"),
]
header_values = st.one_of(
    # \xb2 is SUPERSCRIPT TWO in Latin-1: str.isdigit() says yes, int() raises.
    st.sampled_from(
        [b"17", b"+17", b"1_7", b" 17 ", b"", b"-1", b"1" * 40, b"\xb2", b"1\xb9"]
    ),
    st.binary(max_size=12),
)


@st.composite
def mutated_requests(draw):
    method = draw(st.sampled_from([b"GET", b"POST", b"POST", b"PATCH", b"HEAD"]))
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0"]))
    line = method + b" /v1/predict " + version
    if draw(st.integers(0, 3)) == 0:  # corrupt the request line
        at = draw(st.integers(0, len(line) - 1))
        line = line[:at] + draw(st.binary(max_size=2)) + line[at + 1 :]
    headers = []
    for name, value in draw(st.lists(st.sampled_from(HEADER_POOL), max_size=6)):
        fate = draw(st.sampled_from(["keep", "keep", "drop", "duplicate", "retype"]))
        if fate == "retype":
            value = draw(header_values)
        headers += [(name, value)] * {"drop": 0, "duplicate": 2}.get(fate, 1)
    request = b"\r\n".join(
        [line] + [name + b": " + value for name, value in draw(st.permutations(headers))]
        + [b"", b""]
    ) + b'{"params": {}}...'
    return request[: draw(st.just(len(request)) | st.integers(0, len(request)))]


class TestParseHeadIsTotal:
    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, data):
        check_parse(data)

    @given(mutated_requests())
    @settings(max_examples=1000, deadline=None)
    def test_mutated_valid_requests(self, data):
        check_parse(data)
        check_parse(bytearray(data))  # the handler's buffer type

    @given(
        st.lists(st.sampled_from(HEADER_POOL[:1] + HEADER_POOL[3:6] + HEADER_POOL[7:])),
        st.binary(max_size=40),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_valid_request_round_trips_and_its_prefixes_are_incomplete(
        self, headers, body, data
    ):
        request = post(
            "/v1/what-if",
            body,
            "".join(f"{n.decode()}: {v.decode()}\r\n" for n, v in headers),
        )
        head = check_parse(request + b"GET /next")
        assert isinstance(head, ParsedHead)
        assert (head.method, head.target, head.version) == (
            "POST", "/v1/what-if", (1, 1)
        )
        assert request[head.consumed - head.length : head.consumed] == body
        assert head.consumed == len(request)
        values = [v.decode().lower() for n, v in headers if n == b"Connection"]
        assert head.keep_alive == ("close" not in values)
        assert head.headers["host"] == ", ".join(["t"] + ["grid.example:8080"] * sum(
            n == b"Host" for n, _ in headers
        ))
        cut = data.draw(st.integers(0, len(request) - len(body) - 1))
        assert parse_head(request[:cut]) is None


PREDICT = {"profile": "kmeans", "data_nodes": 2, "compute_nodes": 4}
REQUEST_POOL = [
    post("/v1/predict", {"params": PREDICT}),
    post("/v1/predict", {"params": dict(PREDICT, compute_nodes=8)}),
    post("/v1/what-if", {"params": {"profile": "vortex", "pairs": [[1, 2], [2, 4]]}}),
    post("/v1/predict", {"params": PREDICT, "deadline_s": "soon"}),  # 400
    post("/v1/predict", {"params": dict(PREDICT, data_nodes="2")}),  # settled 400
    post("/v1/predict", b"{ torn"),  # 400
    post("/v1/forecast", {}),  # 404
    b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    b"GET /v1/healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
]


def tcp_socketpair():
    """``socket.socketpair()`` is AF_UNIX, which has no ``TCP_NODELAY``."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        ours = socket.create_connection(listener.getsockname(), timeout=10.0)
        theirs, _ = listener.accept()
    ours.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
    return ours, theirs


def serve_over_socketpair(pieces):
    """Write ``pieces`` one by one to a fresh service's connection handler;
    return the service and every response, ``Date`` and ``latency_s`` removed."""
    service = PredictionService(PROFILES)
    server = make_server(service, "127.0.0.1", 0)
    ours, theirs = tcp_socketpair()

    def handle():  # what socketserver does with an accepted socket
        with theirs:
            server.RequestHandlerClass(theirs, ("pair", 0), server)

    handler = threading.Thread(target=handle)
    handler.start()
    try:
        for piece in pieces:
            ours.sendall(piece)
        ours.shutdown(socket.SHUT_WR)
        raw = b""
        while chunk := ours.recv(65536):
            raw += chunk
    finally:
        handler.join(timeout=10.0)
        ours.close()
        server.server_close()
    assert not handler.is_alive()
    responses = read_responses(raw)
    for _, headers, body in responses:
        del headers["Date"]
        body.pop("latency_s", None)
    return service, responses


class TestSplitStreamsAreAnsweredLikeWholeOnes:
    @given(
        st.lists(st.sampled_from(REQUEST_POOL), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_segmentation_same_responses_settled_once(self, requests, data):
        stream = b"".join(requests)
        cuts = sorted(
            data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=6, unique=True))
        )
        pieces = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]
        _, whole = serve_over_socketpair([stream])
        service, split = serve_over_socketpair(pieces)
        assert split == whole
        assert len(split) == len(requests)
        submitted = [
            ServiceRequest(body["request_id"], "predict", {})
            for _, _, body in split
            if "request_id" in body
        ]
        assert len(submitted) == len(service.log)
        assert verify_service_log(service, submitted) == []
