"""Service chaos campaigns: invariants + byte-identical replay."""

from __future__ import annotations

import pytest

from repro.faults.chaos import (
    ServiceChaosSpec,
    run_service_campaign,
    verify_service_log,
)
from repro.service import (
    PredictionService,
    ServiceRequest,
    demo_profiles,
    generate_requests,
    serve_sequence,
)
from repro.simgrid.errors import ConfigurationError


class TestWorkloadGeneration:
    def test_same_seed_same_requests(self):
        a = generate_requests(5, 50, 100.0, ["kmeans", "apriori"])
        b = generate_requests(5, 50, 100.0, ["kmeans", "apriori"])
        assert a == b

    def test_different_seed_differs(self):
        a = generate_requests(5, 50, 100.0, ["kmeans"])
        b = generate_requests(6, 50, 100.0, ["kmeans"])
        assert a != b

    def test_arrivals_are_sorted_and_ids_unique(self):
        requests = generate_requests(1, 200, 500.0, ["kmeans"])
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert len({r.request_id for r in requests}) == len(requests)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_requests(1, -1, 100.0, ["kmeans"])
        with pytest.raises(ConfigurationError):
            generate_requests(1, 10, 0.0, ["kmeans"])
        with pytest.raises(ConfigurationError):
            generate_requests(1, 10, 100.0, [])


class TestCampaign:
    def test_default_campaign_passes_all_invariants(self):
        spec = ServiceChaosSpec(requests=150, rate_hz=500.0)
        report = run_service_campaign([11, 12], spec)
        assert report.ok, report.violations
        for case in report.cases:
            assert case.replay_identical
            assert case.requests == 150
            # Chaos actually happened: faults were injected and some
            # requests were served from the stale cache.
            assert sum(count for _, count in case.injected) > 0

    def test_overload_campaign_sheds_but_never_drops(self):
        spec = ServiceChaosSpec(
            requests=200,
            rate_hz=5000.0,  # 10x the admission rate
            slow_probability=0.0,
            crash_probability=0.0,
            corrupt_probability=0.0,
        )
        report = run_service_campaign([21], spec)
        assert report.ok, report.violations
        case = report.cases[0]
        assert case.shed > 0
        # Shed + served + everything else still equals the workload.
        assert case.requests == 200

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigurationError):
            run_service_campaign([])


class TestVerifier:
    def test_flags_missing_settlement(self):
        profiles = demo_profiles()
        service = PredictionService(profiles)
        requests = generate_requests(1, 10, 100.0, sorted(profiles))
        serve_sequence(service, requests)
        ghost = ServiceRequest("ghost", "predict", {}, arrival_s=99.0)
        violations = verify_service_log(service, list(requests) + [ghost])
        assert any("ghost" in v for v in violations)

    def test_clean_run_has_no_violations(self):
        profiles = demo_profiles()
        service = PredictionService(profiles)
        requests = generate_requests(2, 30, 100.0, sorted(profiles))
        serve_sequence(service, requests)
        assert verify_service_log(service, requests) == []
