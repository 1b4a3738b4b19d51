"""End-to-end pipeline tests for :class:`PredictionService`."""

from __future__ import annotations

import pytest

from repro.errors import InternalError
from repro.service import (
    BackendFaultSpec,
    PredictionService,
    RequestRecord,
    ResilienceConfig,
    ServiceBackend,
    ServiceFaultInjector,
    ServiceRequest,
    serve_sequence,
)
from repro.service.resilience import (
    BREAKER_FAILURE_THRESHOLD,
    DEADLINE_EPSILON_S,
    BreakerState,
)
from repro.simgrid.errors import ConfigurationError


def predict_request(request_id, arrival_s, profile="kmeans", **extra):
    params = {"profile": profile, "data_nodes": 2, "compute_nodes": 4}
    params.update(extra.pop("params", {}))
    return ServiceRequest(
        request_id=request_id,
        endpoint="predict",
        params=params,
        arrival_s=arrival_s,
        **extra,
    )


def always_crash_backend():
    return ServiceBackend(
        injector=ServiceFaultInjector(
            0, BackendFaultSpec(crash_probability=1.0)
        )
    )


class TestHappyPath:
    def test_predict_returns_breakdown(self, service):
        response = service.handle(predict_request("r1", 0.0))
        assert response.status == 200
        assert response.outcome == "ok"
        assert not response.stale
        assert response.body["total"] > 0.0
        assert response.body["fingerprint"]
        assert response.latency_s == pytest.approx(
            service.backend.cost_model.predict_s
        )

    def test_whatif_recommends_a_configuration(self, service):
        response = service.handle(
            ServiceRequest(
                "r1",
                "what-if",
                {"profile": "kmeans", "pairs": [[1, 2], [4, 8]]},
                arrival_s=0.0,
            )
        )
        assert response.status == 200
        assert len(response.body["forecasts"]) == 2
        assert response.body["recommended"] in {"1-2", "4-8"}

    def test_campaign_status_without_journal(self, profiles, tmp_path):
        service = PredictionService(
            profiles,
            campaign_journals={"demo": str(tmp_path / "missing.journal")},
        )
        response = service.handle(
            ServiceRequest(
                "r1", "campaign-status", {"campaign": "demo"}, arrival_s=0.0
            )
        )
        assert response.status == 200
        assert response.body["exists"] is False

    def test_campaign_status_reads_a_journal_being_appended(
        self, profiles, tmp_path
    ):
        from repro.campaign import CampaignJournal, JournalRecord

        path = tmp_path / "live.journal"
        journal = CampaignJournal(path)
        journal.initialize("demo", "fp")
        for entry_id, status in (("a", "completed"), ("b", "timed-out")):
            journal.commit(JournalRecord(entry_id, status, 1, 0.1, None))
        # A third commit caught halfway through its append.
        path.write_bytes(path.read_bytes() + b'{"attempts":1,"elapsed_s":0.')
        before = path.read_bytes()
        service = PredictionService(
            profiles, campaign_journals={"demo": str(path)}
        )
        response = service.handle(
            ServiceRequest(
                "r1", "campaign-status", {"campaign": "demo"}, arrival_s=0.0
            )
        )
        assert response.status == 200
        assert response.body["exists"] is True
        assert response.body["settled"] == 2
        assert response.body["by_status"] == {"completed": 1, "timed-out": 1}
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["live.journal"]

    def test_unknown_endpoint_and_profile_reject(self, service):
        nope = service.handle(
            ServiceRequest("r1", "nope", {}, arrival_s=0.0)
        )
        assert nope.status == 404
        missing = service.handle(predict_request("r2", 0.0, profile="ghost"))
        assert missing.status == 400
        assert missing.outcome == "rejected"

    def test_broker_submit_without_broker_is_501(self, service):
        response = service.handle(
            ServiceRequest(
                "r1",
                "broker-submit",
                {"jobs": [{"job_id": "j1", "workload": "kmeans"}]},
                arrival_s=0.0,
            )
        )
        assert response.status == 501
        assert response.outcome == "unconfigured"


class TestResiliencePaths:
    def test_overload_sheds_with_retry_after(self, profiles):
        config = ResilienceConfig(admission_rate=10.0, admission_burst=2.0)
        service = PredictionService(profiles, config=config)
        responses = [
            service.handle(predict_request(f"r{i}", 0.0)) for i in range(4)
        ]
        shed = [r for r in responses if r.outcome == "shed"]
        assert len(shed) == 2
        assert all(r.status == 429 for r in shed)
        assert all(r.retry_after_s > 0.0 for r in shed)
        assert all(r.body["retry_after_s"] > 0.0 for r in shed)

    def test_unmeetable_deadline_is_504_when_cache_cold(self, service):
        response = service.handle(
            predict_request("r1", 0.0, deadline_s=1.0e-6)
        )
        assert response.status == 504
        assert response.outcome == "deadline"

    def test_unmeetable_deadline_serves_stale_after_warmup(self, service):
        warm = service.handle(predict_request("r1", 0.0))
        assert warm.outcome == "ok"
        response = service.handle(
            predict_request("r2", 1.0, deadline_s=1.0e-6)
        )
        assert response.status == 200
        assert response.outcome == "stale"
        assert response.body["stale"] is True
        assert response.body["stale_age_s"] > 0.0
        assert response.body["degraded_reason"] == "deadline"
        assert response.body["total"] == pytest.approx(warm.body["total"])

    def test_latency_never_exceeds_deadline_plus_epsilon(self, service):
        requests = [
            predict_request(f"r{i}", i * 0.001, deadline_s=0.002)
            for i in range(50)
        ]
        responses = serve_sequence(service, requests)
        bound = 0.002 + DEADLINE_EPSILON_S
        assert all(r.latency_s <= bound for r in responses)

    def test_crashing_backend_opens_breaker_then_serves_stale(
        self, profiles
    ):
        service = PredictionService(profiles)
        warm = service.handle(predict_request("warm", 0.0))
        assert warm.outcome == "ok"
        service.backend = always_crash_backend()
        responses = [
            service.handle(predict_request(f"r{i}", 1.0 + i * 0.1))
            for i in range(BREAKER_FAILURE_THRESHOLD + 2)
        ]
        breaker = service.breakers.breaker("kmeans", "pentium-myrinet")
        assert breaker.opens >= 1
        # Once open, requests degrade to the cached prediction.
        tail = responses[-1]
        assert tail.outcome == "stale"
        assert tail.body["degraded_reason"] == "breaker-open"

    def test_breaker_probe_recovers_after_cooldown(self, profiles):
        service = PredictionService(profiles)
        service.handle(predict_request("warm", 0.0))
        service.backend = always_crash_backend()
        t = 1.0
        breaker = service.breakers.breaker("kmeans", "pentium-myrinet")
        i = 0
        while breaker.state is not BreakerState.OPEN:
            service.handle(predict_request(f"fail{i}", t))
            t += 0.01
            i += 1
        service.backend = ServiceBackend()  # backend heals
        probe_at = breaker.open_until_s + 0.001
        probe = service.handle(predict_request("probe", probe_at))
        assert probe.outcome == "ok"
        assert breaker.state is BreakerState.CLOSED

    def test_simultaneous_arrivals_each_settle_at_their_price(self, service):
        """Admission alone sheds: five predicts admitted at one instant
        each settle at their arrival plus their price."""
        price = service.backend.cost_model.predict_s
        burst = [
            service.handle(predict_request(f"r{i}", 1.0)) for i in range(5)
        ]
        assert [r.outcome for r in burst] == ["ok"] * 5
        assert [r.settled_s for r in burst] == [1.0 + price] * 5

    def test_corrupt_response_never_served_or_cached(self, profiles):
        service = PredictionService(
            profiles,
            backend=ServiceBackend(
                injector=ServiceFaultInjector(
                    0, BackendFaultSpec(corrupt_probability=1.0)
                )
            ),
        )
        response = service.handle(predict_request("r1", 0.0))
        assert response.status == 500
        assert response.outcome == "backend-error"
        assert len(service.cache) == 0

    def test_transient_crash_retried_within_budget(self, profiles):
        # Crash on the first draw only: seed 0's first uniform is below
        # 0.5 for crash, later draws recover.
        injector = ServiceFaultInjector(
            3, BackendFaultSpec(crash_probability=0.5)
        )
        service = PredictionService(
            profiles, backend=ServiceBackend(injector=injector)
        )
        responses = [
            service.handle(predict_request(f"r{i}", i * 1.0, deadline_s=5.0))
            for i in range(6)
        ]
        retried_ok = [
            r for r in responses if r.outcome == "ok" and r.retries > 0
        ]
        assert retried_ok, "expected at least one retried success"
        for response in retried_ok:
            assert response.latency_s > service.backend.cost_model.predict_s


class TestExactlyOnce:
    def test_every_request_settles_exactly_once(self, service):
        requests = [predict_request(f"r{i}", i * 0.01) for i in range(20)]
        serve_sequence(service, requests)
        assert len(service.log) == 20
        assert sorted(r.request_id for r in service.log.records) == sorted(
            r.request_id for r in requests
        )

    def test_duplicate_id_answered_without_resettling(self, service):
        service.handle(predict_request("r1", 0.0))
        duplicate = service.handle(predict_request("r1", 1.0))
        assert duplicate.status == 409
        assert duplicate.outcome == "duplicate"
        assert len(service.log) == 1

    def test_log_refuses_double_settlement(self):
        from repro.service import RequestLog

        log = RequestLog()
        record = RequestRecord(
            request_id="r1",
            endpoint="predict",
            arrival_s=0.0,
            settled_s=0.1,
            status=200,
            outcome="ok",
            stale=False,
            retries=0,
        )
        log.settle(record)
        with pytest.raises(InternalError):
            log.settle(record)


class TestServeSequence:
    def test_requires_virtual_clock(self, profiles):
        from repro.service import MonotonicClock

        service = PredictionService(profiles, clock=MonotonicClock())
        with pytest.raises(ConfigurationError):
            serve_sequence(service, [predict_request("r1", 0.0)])

    def test_requires_arrival_times(self, service):
        request = ServiceRequest("r1", "predict", {})
        with pytest.raises(ConfigurationError):
            serve_sequence(service, [request])

    def test_metrics_rollup_is_consistent(self, service):
        requests = [predict_request(f"r{i}", i * 0.01) for i in range(10)]
        serve_sequence(service, requests)
        metrics = service.metrics()
        assert metrics["requests"] == 10
        assert metrics["admission"]["admitted"] == 10
        assert metrics["served"] == metrics["by_outcome"].get("ok", 0)
        assert metrics["p99_latency_s"] >= metrics["p50_latency_s"] > 0.0
