"""The request path: what a request costs, what hostile parameters get,
and what time means on each clock.

Per-request work is pinned by *count* (solves, cluster builds, digests),
never by a wall-clock threshold; the real-clock tests assert outcomes.
"""

from __future__ import annotations

import collections
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.core import durable, fingerprint
from repro.core.durable import canonical_json, content_digest
from repro.core.predcache import PredictionCache
from repro.errors import InternalError
from repro.faults.chaos import ServiceChaosSpec, _serve_case, verify_service_log
from repro.service import (
    BackendFaultSpec,
    MonotonicClock,
    PredictionService,
    RequestLog,
    RequestMix,
    RequestRecord,
    ResilienceConfig,
    ServiceBackend,
    ServiceFaultInjector,
    ServiceRequest,
    VirtualClock,
    demo_profiles,
    generate_requests,
    serve_sequence,
)
from repro.service import app as service_app
from repro.service.http import ServiceGateway, _route
from repro.service.errors import BackendCrashError
from repro.service.resilience import BREAKER_FAILURE_THRESHOLD, BreakerState
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError

PREDICT = {"profile": "kmeans", "data_nodes": 2, "compute_nodes": 4}
WHATIF = {"profile": "kmeans", "pairs": [[1, 2], [2, 4]]}
INF, NAN = float("inf"), float("nan")

#: id -> (endpoint, parameters json.loads accepts, what the 400 names).
HOSTILE = {
    "data_nodes-inf": ("predict", dict(PREDICT, data_nodes=INF), "data_nodes"),
    "compute_nodes-2.5": ("predict", dict(PREDICT, compute_nodes=2.5), "compute_nodes"),
    "compute_nodes-true": ("predict", dict(PREDICT, compute_nodes=True), "compute_nodes"),
    "data_nodes-str": ("predict", dict(PREDICT, data_nodes="2"), "data_nodes"),
    "data_nodes-absent": ("predict", {"profile": "kmeans", "compute_nodes": 4}, "data_nodes"),
    "bandwidth-str": ("predict", dict(PREDICT, bandwidth="fast"), "bandwidth"),
    "bandwidth-nan": ("predict", dict(PREDICT, bandwidth=NAN), "bandwidth"),
    "bandwidth-1e400": ("predict", dict(PREDICT, bandwidth=10**400), "bandwidth"),
    "ppn-list": ("predict", dict(PREDICT, processes_per_node=[1]), "processes_per_node"),
    "dataset_bytes-nan": ("predict", dict(PREDICT, dataset_bytes=NAN), "dataset_bytes"),
    "dataset_bytes-neg-inf": ("predict", dict(PREDICT, dataset_bytes=-INF), "dataset_bytes"),
    "whatif-bandwidth-str": ("what-if", dict(WHATIF, bandwidth="x"), "bandwidth"),
    "whatif-bandwidth-inf": ("what-if", dict(WHATIF, bandwidth=INF), "bandwidth"),
    "whatif-pair-inf": ("what-if", dict(WHATIF, pairs=[[1, INF]]), "pairs"),
    "whatif-pair-2.5": ("what-if", dict(WHATIF, pairs=[[1, 2.5]]), "pairs"),
    # Numbers, but not a configuration the cluster can host.
    "whatif-pair-c-below-n": ("what-if", dict(WHATIF, pairs=[[1, 2], [4, 2]]), "compute nodes"),
    "whatif-pair-too-large": ("what-if", dict(WHATIF, pairs=[[1, 64]]), "64 requested"),
}


@pytest.fixture()
def route(service):
    """POST a JSON document to the ``service`` fixture's gateway."""
    gateway = ServiceGateway(service)

    def post(endpoint, payload):
        body = json.dumps(payload).encode()  # Infinity / NaN go out as tokens
        return _route(gateway, "POST", f"/v1/{endpoint}", body)

    return post


class TestHostileParameters:
    """Client garbage is a settled 400, never an exception out of handle()."""

    @pytest.mark.parametrize(
        "endpoint, params, names", HOSTILE.values(), ids=list(HOSTILE)
    )
    def test_bad_number_is_a_400_settled_exactly_once(
        self, service, route, endpoint, params, names
    ):
        status, body, _ = route(endpoint, {"params": params})
        assert (status, body["outcome"]) == (400, "rejected")
        assert names in body["error"]
        submitted = [ServiceRequest(body["request_id"], endpoint, params)]
        assert len(service.log) == 1
        assert verify_service_log(service, submitted) == []
        assert service.backend.calls == 0

    @pytest.mark.parametrize("params", [[1, 2], "kmeans", 7, None])
    def test_params_that_is_not_an_object_says_so(self, service, route, params):
        status, body, _ = route("predict", {"params": params})
        assert status == 400
        assert "params must be a JSON object" in body["error"]
        assert len(service.log) == 0 and service.bucket.admitted == 0

    def test_integer_past_the_interpreters_digit_limit_is_a_400(self, service):
        body = b'{"params": {"data_nodes": 1' + b"0" * 5000 + b"}}"
        status, reply, _ = _route(
            ServiceGateway(service), "POST", "/v1/predict", body
        )
        assert status == 400 and "not JSON" in reply["error"]
        assert len(service.log) == 0

    def test_integral_floats_and_absent_optionals_are_still_served(self, route):
        params = dict(PREDICT, data_nodes=2.0, bandwidth=1_000_000)
        status, body, _ = route("predict", {"params": params})
        assert (status, body["outcome"], body["target"]) == (200, "ok", "2-4")


class TestTheBreakerIsNotTheClients:
    """A non-finite input is the client's 400, not the backend's failure."""

    @pytest.mark.parametrize("field", ["bandwidth", "dataset_bytes"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_input_never_reaches_the_breaker(
        self, service, route, field, value
    ):
        for _ in range(BREAKER_FAILURE_THRESHOLD + 1):
            status, body, _ = route(
                "predict", {"params": dict(PREDICT, **{field: value})}
            )
            assert status == 400 and field in body["error"]
        assert service.backend.calls == 0
        assert service.breakers.total_opens() == 0
        breaker = service.breakers.breaker("kmeans", "pentium-myrinet")
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        for endpoint, params in (("predict", PREDICT), ("what-if", WHATIF)):
            status, body, _ = route(endpoint, {"params": params})
            assert (status, body["outcome"]) == (200, "ok")

    @pytest.mark.parametrize("deadline", [NAN, INF, -INF, 0.0])
    def test_non_finite_deadline_is_a_400(self, service, route, deadline):
        status, body, _ = route(
            "predict", {"params": PREDICT, "deadline_s": deadline}
        )
        assert (status, body["outcome"]) == (400, "rejected")
        assert "deadline budget must be positive and finite" in body["error"]
        assert len(service.log) == 1 and service.backend.calls == 0


#: Admission out of the way: the subject is what stays behind it.
SATURATION_CONFIG = ResilienceConfig(admission_rate=1.0e6, admission_burst=64.0)


def saturation_requests():
    """The benchmark's seeded 200-request 80/20 list, three times round,
    with a deadline no scheduler stall on a shared box reaches."""
    cycle = generate_requests(
        5, 200, 1000.0, list(demo_profiles()),
        mix=RequestMix(predict=0.8, whatif=0.2, status=0.0, broker=0.0),
    )
    return [
        ServiceRequest(
            f"cycle{k}-{r.request_id}", r.endpoint, r.params, deadline_s=10.0
        )
        for k in range(3)
        for r in cycle
    ]


class ScriptedClock(VirtualClock):
    """Virtual time whose attempts cost what the script says they took."""

    def __init__(self, charges):
        super().__init__()
        self.charges = list(charges)

    def charge(self, priced_s, began_s):
        return self.charges.pop(0)


def timed(request_id, arrival_s):
    return ServiceRequest(request_id, "predict", PREDICT, arrival_s=arrival_s)


class TestWhatAnAttemptCost:
    def test_real_clock_at_saturation_answers_everything_fresh(self):
        """ROADMAP 5(a): as fast as the loop goes.  At 571355b the first
        cycle settled 86 ok, 99 stale and 15 x 503."""
        service = PredictionService(
            demo_profiles(), clock=MonotonicClock(), config=SATURATION_CONFIG
        )
        submitted = saturation_requests()
        outcomes = collections.Counter(
            service.handle(request).outcome for request in submitted
        )
        assert outcomes == {"ok": 600}
        assert verify_service_log(service, submitted) == []
        assert service.bucket.shed == 0

    def test_real_clock_bulkheads_never_queue_under_retries(self):
        """2,000 back-to-back predicts on a crashing backend: retry backoff
        is booked as the time it took, and the log still verifies."""
        service = PredictionService(
            demo_profiles(),
            clock=MonotonicClock(),
            config=SATURATION_CONFIG,
            backend=ServiceBackend(
                injector=ServiceFaultInjector(
                    7, BackendFaultSpec(crash_probability=0.3)
                )
            ),
        )
        submitted = [
            ServiceRequest(f"r{i}", "predict", PREDICT) for i in range(2000)
        ]
        backed_off = sum(service.handle(request).retries > 0 for request in submitted)
        assert backed_off  # the subject: replies that retried after a backoff
        assert verify_service_log(service, submitted) == []

    def test_retry_backoff_is_booked_by_the_clock(self):
        """Crash, back off, succeed: the booked time is the three charges
        (attempt, backoff, attempt), not the policy's 5 ms backoff."""

        class CrashOnce(ServiceBackend):
            crashed = False

            def predict(self, *args):
                if not self.crashed:
                    self.crashed = True
                    raise BackendCrashError("scripted crash", cost_s=0.004)
                return super().predict(*args)

        service = PredictionService(
            demo_profiles(),
            clock=ScriptedClock([0.001, 0.002, 0.003]),
            backend=CrashOnce(),
        )
        reply = service.handle(timed("r1", 1.0))
        assert (reply.outcome, reply.retries) == ("ok", 1)
        assert reply.settled_s == 1.0 + (0.001 + 0.002 + 0.003)
        assert service.clock.charges == []

    def test_virtual_clock_charges_the_price_and_real_clock_the_time(self):
        assert VirtualClock(5.0).charge(0.004, 1.0) == 0.004
        clock = MonotonicClock()
        began = clock.now()
        assert 0.0 <= clock.charge(0.004, began) <= clock.now() - began

    @pytest.mark.parametrize("warm", [False, True], ids=["cold-504", "warm-stale"])
    def test_measured_overrun_takes_the_priced_overruns_branches(self, warm):
        """0.3 s measured on a 0.25 s deadline == 0.3 s priced on it."""
        measured = PredictionService(
            demo_profiles(), clock=ScriptedClock([0.004, 0.3] if warm else [0.3])
        )
        priced = PredictionService(demo_profiles())
        slow = ServiceBackend(
            injector=ServiceFaultInjector(
                0, BackendFaultSpec(slow_probability=1.0, slow_factor=(75.0, 75.0))
            )
        )
        submitted = [timed("warm", 0.0)] * warm + [timed("late", 1.0)]
        replies = []
        for service in (measured, priced):
            if warm:
                assert service.handle(submitted[0]).outcome == "ok"
            if service is priced:
                service.backend = slow  # 75 x 4 ms = 0.3 s per attempt
            replies.append(service.handle(submitted[-1]))
            assert verify_service_log(service, submitted) == []
            breaker = service.breakers.breaker("kmeans", "pentium-myrinet")
            assert breaker.consecutive_failures == 1
        assert replies[0] == replies[1]
        expected = (200, "stale") if warm else (504, "deadline")
        assert (replies[0].status, replies[0].outcome) == expected
        assert replies[0].settled_s == pytest.approx(1.25 + 2.0e-4)


@pytest.fixture()
def counts(monkeypatch):
    """Calls of everything that must not be per-request work."""
    seen = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(
        fingerprint, "cluster_to_dict",
        counting("cluster_to_dict", fingerprint.cluster_to_dict),
    )
    for module in (durable, fingerprint):
        monkeypatch.setattr(
            module, "content_digest", counting("content_digest", content_digest)
        )
    monkeypatch.setattr(
        service_app, "CLUSTERS",
        {
            name: counting("cluster_factory", make)
            for name, make in service_app.CLUSTERS.items()
        },
    )
    monkeypatch.setattr(
        RunConfig, "__post_init__",
        counting("run_config", RunConfig.__post_init__),
    )
    return seen


class TestPerRequestWorkIsCounted:
    """A request's key is digested once: the first request of a key costs
    one digest, and its 50th repeat costs no digest and builds no
    ``RunConfig`` of its own (a what-if sweep still builds one per pair,
    inside the backend call)."""

    @pytest.mark.parametrize(
        "endpoint, params",
        [
            ("predict", {"data_nodes": 2, "compute_nodes": 4}),
            ("what-if", {"pairs": [[1, 2], [2, 4], [4, 8], [8, 16]]}),
        ],
    )
    def test_warm_request_digests_its_key_and_nothing_else(
        self, counts, endpoint, params
    ):
        profiles = demo_profiles()
        service = PredictionService(profiles)
        clusters = sorted(service_app.CLUSTERS)
        # Construction: each named cluster built once; every profile and
        # cluster digested once (a profile document holds two clusters).
        assert counts["cluster_factory"] == len(clusters)
        assert counts["content_digest"] == len(profiles) + len(clusters)
        assert counts["cluster_to_dict"] == 2 * len(profiles) + len(clusters)

        def serve(index, profile, cluster):
            service.clock.advance(0.05)
            request = ServiceRequest(
                f"r{index}", endpoint,
                dict(params, profile=profile, cluster=cluster),
            )
            assert service.handle(request).outcome == "ok"

        targets = [(p, c) for p in sorted(profiles) for c in clusters]
        for index, (profile, cluster) in enumerate(targets):
            counts.clear()
            serve(f"first{index}", profile, cluster)
            assert counts["content_digest"] == 1, f"first request {index}"
        sweep = len(params.get("pairs", ()))
        for index in range(2, 51):
            counts.clear()
            serve(index, *targets[index % len(targets)])
            assert counts == (
                {"run_config": sweep} if sweep else {}
            ), f"request {index}"


#: (label, endpoint, params): a request form per value Python compares
#: equal to another form's (``True == 1``, ``2 == 2.0``), or refuses.
KEY_FORMS = {
    "1": ("predict", dict(PREDICT, data_nodes=1)),
    "True": ("predict", dict(PREDICT, data_nodes=True)),
    "2": ("predict", dict(PREDICT, data_nodes=2)),
    "2.0": ("predict", dict(PREDICT, data_nodes=2.0)),
    "'2'": ("predict", dict(PREDICT, data_nodes="2")),
    "[2]": ("predict", dict(PREDICT, data_nodes=[2])),
    "absent": ("predict", {"profile": "kmeans", "compute_nodes": 4}),
    "None": ("predict", dict(PREDICT, data_nodes=None)),
    "pairs-int": ("what-if", dict(WHATIF, pairs=[[1, 2], [2, 4]])),
    "pairs-float": ("what-if", dict(WHATIF, pairs=[[1.0, 2], [2, 4]])),
    "pairs-bool": ("what-if", dict(WHATIF, pairs=[[True, 2], [2, 4]])),
    "pairs-tuple": ("what-if", dict(WHATIF, pairs=[(1, 2), (2, 4)])),
}
KEY_CLASHES = [
    ("1", "True"), ("2", "2.0"), ("2", "'2'"), ("2", "[2]"), ("absent", "None"),
    ("pairs-int", "pairs-float"), ("pairs-int", "pairs-bool"),
    ("pairs-int", "pairs-tuple"),
]


class TestRequestKeysAreTypeExact:
    """A repeated request reuses what its first one resolved, so two
    requests may share an entry only when every field they read is the
    same JSON value of the same type."""

    @staticmethod
    def _answer(service, index, label):
        endpoint, params = KEY_FORMS[label]
        response = service.handle(
            ServiceRequest(f"{label}-{index}", endpoint, params)
        )
        return response.status, response.body

    @pytest.mark.parametrize(
        "first, second",
        KEY_CLASHES + [(b, a) for a, b in KEY_CLASHES],
        ids=[f"{a}-then-{b}" for a, b in KEY_CLASHES]
        + [f"{b}-then-{a}" for a, b in KEY_CLASHES],
    )
    def test_each_form_is_answered_as_a_fresh_service_answers_it(
        self, first, second
    ):
        service = PredictionService(demo_profiles())
        served = [
            self._answer(service, index, label)
            for index, label in enumerate([first, second, first, second])
        ]
        for index, label in enumerate([first, second] * 2):
            fresh = self._answer(PredictionService(demo_profiles()), 0, label)
            assert served[index] == fresh, label
        # Only a form that was served is stored, once.
        assert len(service._resolved) == sum(
            status == 200 for status, _ in served[:2]
        )

    def test_a_request_without_a_key_is_resolved_and_never_stored(self):
        service = PredictionService(demo_profiles())
        params = dict(PREDICT, bandwidth={"bytes_per_s": 1e6})
        for index in range(2):
            response = service.handle(ServiceRequest(f"r{index}", "predict", params))
            assert (response.status, response.outcome) == (400, "rejected")
            assert "bandwidth" in response.body["error"]
        assert service._resolved == {}

    def test_only_a_fresh_answer_is_remembered(self):
        """A request refused before the backend (here, by its deadline)
        keeps nothing, however many pairs it validated."""
        service = PredictionService(demo_profiles())
        params = dict(WHATIF, pairs=[[1, 2]] * 1000)
        refused = service.handle(
            ServiceRequest("tight", "what-if", params, deadline_s=1e-6)
        )
        assert (refused.status, refused.outcome) == (504, "deadline")
        assert service._resolved == {}
        service.clock.advance(0.05)
        served = service.handle(
            ServiceRequest("roomy", "what-if", params, deadline_s=60.0)
        )
        assert served.outcome == "ok" and len(service._resolved) == 1

    def test_the_map_is_bounded_by_the_prediction_cache(self):
        service = PredictionService(
            demo_profiles(), cache=PredictionCache(max_entries=3)
        )
        for index in range(5):
            service.clock.advance(0.05)
            params = dict(PREDICT, bandwidth=1.0e6 + index)
            assert service.handle(
                ServiceRequest(f"r{index}", "predict", params)
            ).outcome == "ok"
        bandwidths = [
            resolved.target.config.bandwidth
            for resolved in service._resolved.values()
        ]
        assert bandwidths == [1.0e6 + i for i in (2, 3, 4)]  # oldest out


#: sha256 of ``canonical_json(RequestLog.to_dict())`` (what
#: ``content_digest`` hashed until it went compact) for the service chaos
#: gate's nine cases: a clean baseline, the standard fault mix and an
#: overload at 8x the admission rate, each at three seeds.  Pinned at
#: 571355b and re-pinned when the per-endpoint worker pools were deleted
#: (every request is now booked from its own arrival).  Hashed the old
#: way so these values never move: a changed one means the log itself
#: moved.
PARENT_LOG_DIGESTS = {
    ("baseline", 11): "91a8526b7e4463bd1d067941da009570e53aa5ff02223110955f9145d97d046f",
    ("baseline", 23): "c61fee8a3270d450945e91fd3bce0c8f683db8fabb5971ecf8264fd48427539f",
    ("baseline", 47): "9c652d6c15841f196c9f7fca1d29176642745594a5d520c574369a763bdb1c28",
    ("faulted", 11): "10e00c21dd379452b2379514c9a20447a8f5a2e504f78f8316211e322dc60cd2",
    ("faulted", 23): "17205eedcbc4c5fb111e7e0a5bba32dae7b4753c9e0f538b6be462240b836ed6",
    ("faulted", 47): "205a02ff1d6ae78a9ccf19eaad6976c5ed79542e45e8e803b9c9c967961f5546",
    ("overload", 11): "048f3a821f7e1e55fdfe1e76507915f245fedeb68dc8a1d5e6126c7d10614aff",
    ("overload", 23): "48154ff2babdf443724af99c4c252727907a46365ba55ebcd87ad6432c017144",
    ("overload", 47): "00d78568247f285ede37174f22fdcc47479843fc6325bf82e3b50cf62adeb12e",
}
CLEAN = dict(
    slow_probability=0.0, crash_probability=0.0, corrupt_probability=0.0,
    tight_deadline_fraction=0.0,
)
SPECS = {
    "baseline": ServiceChaosSpec(requests=400, rate_hz=300.0, **CLEAN),
    "faulted": ServiceChaosSpec(requests=400, rate_hz=300.0),
    "overload": ServiceChaosSpec(requests=400, rate_hz=4000.0),
}


class TestVirtualTimeDidNotMove:
    @pytest.mark.parametrize("scenario, seed", sorted(PARENT_LOG_DIGESTS))
    def test_request_log_is_the_parent_commits(self, scenario, seed):
        service, requests = _serve_case(seed, SPECS[scenario])
        document = canonical_json(service.log.to_dict()).encode("utf-8")
        assert (
            hashlib.sha256(document).hexdigest()
            == PARENT_LOG_DIGESTS[scenario, seed]
        )
        # The digest pins the log; the books and breakers beside it are
        # held by the invariant suite, and each scenario must exercise
        # the path it exists for.
        assert verify_service_log(service, requests) == []
        shed = service.log.summary()["shed"]
        if scenario == "baseline":
            assert shed == 0
        elif scenario == "overload":
            assert shed > 0
        else:
            assert sum(service.backend.injector.injected.values()) > 0


def record(index, outcome="ok", latency_s=4e-3, request_id=None):
    arrival = index * 1e-3
    return RequestRecord(
        request_id or f"http-{index}", "predict", arrival, arrival + latency_s,
        {"ok": 200, "stale": 200, "shed": 429, "rejected": 400}[outcome],
        outcome, outcome == "stale", 0,
    )


def rollup(records):
    """What ``summary()`` computed from a full record list before the
    log kept counters: every record counted, sorted latencies."""
    records = list(records)
    outcomes = collections.Counter(r.outcome for r in records)
    statuses = collections.Counter(str(r.status) for r in records)
    latencies = sorted(r.latency_s for r in records)
    total = len(records)
    return {
        "requests": total,
        "by_outcome": dict(sorted(outcomes.items())),
        "by_status": dict(sorted(statuses.items())),
        "served": outcomes["ok"] + outcomes["stale"],
        "shed": outcomes["shed"],
        "stale_served": outcomes["stale"],
        "shed_rate": outcomes["shed"] / total if total else 0.0,
        "stale_rate": outcomes["stale"] / total if total else 0.0,
        "p50_latency_s": service_app._percentile(latencies, 0.50),
        "p99_latency_s": service_app._percentile(latencies, 0.99),
        "max_latency_s": latencies[-1] if latencies else 0.0,
    }


WINDOW = RequestLog.WINDOW


class TestTheLogRunsInConstantMemory:
    def test_ten_windows_allocate_what_one_does(self):
        def held_after(settled):
            log = RequestLog()
            tracemalloc.start()
            try:
                for i in range(settled):
                    log.settle(record(i))
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(log) == settled and len(log.records) == WINDOW
            return held

        one, two, ten = (held_after(k * WINDOW) for k in (1, 2, 10))
        assert ten <= two + 16 * 1024  # nothing grows after the first wrap
        # The slack: once ids are evicted, the id set's hash table doubles
        # (CPython resizes to 4x the live entries), then holds.
        assert ten <= 1.5 * one

    def test_counters_stay_exact_across_a_wrap(self):
        log = RequestLog()
        outcomes = ["ok", "stale", "shed", "rejected"]
        settled = WINDOW + 1000
        for i in range(settled):
            latency = 5.0 if i == 3 else 4e-3  # the slowest leaves the window
            log.settle(record(i, outcomes[i % 4], latency))
        summary = log.summary()
        assert len(log) == summary["requests"] == settled
        assert sum(summary["by_outcome"].values()) == settled
        assert sum(summary["by_status"].values()) == settled
        assert summary["by_outcome"] == {o: settled // 4 for o in sorted(outcomes)}
        assert summary["by_status"] == {
            "200": settled // 2, "400": settled // 4, "429": settled // 4
        }
        assert summary["shed_rate"] == 0.25 and summary["served"] == settled // 2
        assert summary["max_latency_s"] == 5.0
        window = rollup(log.records)  # percentiles are over the window
        assert window["requests"] == WINDOW and summary["p99_latency_s"] < 5.0
        for key in ("p50_latency_s", "p99_latency_s"):
            assert summary[key] == window[key]

    def test_duplicates_are_detected_within_the_window(self):
        log = RequestLog()
        for i in range(WINDOW + 1):
            log.settle(record(i))
        assert "http-0" not in log and "http-1" in log
        with pytest.raises(InternalError):
            log.settle(record(WINDOW, request_id="http-1"))
        log.settle(record(WINDOW + 1, request_id="http-0"))  # left the window
        assert len(log) == WINDOW + 2 and len(log.records) == WINDOW

    @pytest.mark.parametrize("scenario, seed", [("faulted", 11), ("overload", 23)])
    def test_under_the_window_summary_is_the_full_rollup(self, scenario, seed):
        service, _ = _serve_case(seed, SPECS[scenario])
        assert len(service.log) == len(service.log.records) == 400
        assert service.log.summary() == rollup(service.log.records)


class TestChaosStaysInsideTheWindow:
    def test_a_chaos_spec_past_the_window_is_refused(self):
        assert ServiceChaosSpec(requests=WINDOW).requests == WINDOW
        with pytest.raises(ConfigurationError, match="window"):
            ServiceChaosSpec(requests=WINDOW + 1)

    def test_an_overflowed_log_fails_verification(self):
        service = PredictionService(demo_profiles())
        submitted = [timed(f"r{i}", i * 0.01) for i in range(WINDOW + 1)]
        serve_sequence(service, submitted)
        violations = verify_service_log(service, submitted)
        assert violations[0] == (
            f"request log overflowed its window: {WINDOW + 1} settled, "
            f"{WINDOW} kept; exactly-once cannot be proven past the window"
        )
        assert "request 'r0' settled 0 time(s); expected exactly 1" in violations
        # One short of the window, the same run verifies clean.
        service = PredictionService(demo_profiles())
        serve_sequence(service, submitted[:WINDOW])
        assert verify_service_log(service, submitted[:WINDOW]) == []


class TestClientRequestIds:
    @pytest.mark.parametrize(
        "client_id",
        ["http-2", {"a": [1, 2]}, 0, "", "x" * 129, "has space", "caf\u00e9",
         "tab\there", ["r1"], True, "x" * 100_000],
        ids=["gateway-prefix", "object", "zero", "empty", "129-chars", "space",
             "non-ascii", "control", "list", "true", "100kb"],
    )
    def test_a_bad_client_id_is_a_400_naming_request_id(self, service, route, client_id):
        status, body, _ = route("predict", {"params": PREDICT, "request_id": client_id})
        assert status == 400 and "request_id" in body["error"]
        assert len(body["error"]) < 200  # the id is not echoed whole
        assert len(service.log) == 0 and service.bucket.admitted == 0

    def test_a_client_cannot_take_the_gateways_next_id(self, service, route):
        assert route("predict", {"params": PREDICT})[1]["request_id"] == "http-1"
        assert route("predict", {"params": PREDICT, "request_id": "http-2"})[0] == 400
        status, body, _ = route("predict", {"params": PREDICT})
        assert (status, body["request_id"], body["outcome"]) == (200, "http-2", "ok")

    def test_a_good_client_id_is_used_and_deduplicated(self, service, route):
        client_id = "broker-7/job:42" + "x" * 113  # 128 visible characters
        status, body, _ = route("predict", {"params": PREDICT, "request_id": client_id})
        assert (status, body["request_id"], body["outcome"]) == (200, client_id, "ok")
        status, body, _ = route("predict", {"params": PREDICT, "request_id": client_id})
        assert (status, body["outcome"]) == (409, "duplicate")
        assert len(service.log) == 1

    def test_a_null_id_is_an_absent_one(self, route):
        status, body, _ = route("predict", {"params": PREDICT, "request_id": None})
        assert (status, body["request_id"]) == (200, "http-1")
