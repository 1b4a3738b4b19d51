"""Property-based chaos: seeded grid weather never breaks the invariants.

The executable version of the tentpole guarantee (DESIGN.md section 14):
for ANY seeded, survivable-by-construction fault timeline, every job of
the stream settles exactly once, no reservation window overlaps a
declared outage or double-books a node, and the identical
(seed, scenario) pair replays byte-identically.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker import BrokerJob, GridBroker
from repro.faults.chaos import (
    ChaosSpec,
    chaos_timeline,
    run_campaign,
    verify_run,
)
from repro.faults.grid import TransientJobFailure
from repro.simgrid.errors import ConfigurationError
from tests.broker.conftest import small_grid

_WORKLOADS = ["kmeans", "knn", "vortex", "em"]


def chaos_stream():
    return [
        BrokerJob(
            job_id=f"c{i}",
            workload=_WORKLOADS[i % len(_WORKLOADS)],
            arrival=0.05 * i,
        )
        for i in range(8)
    ]


# Module-level broker shared across hypothesis examples: its memoized
# executions are deterministic, so sharing changes speed, never results.
_CHAOS_BROKER = GridBroker(small_grid(), [(1, 2), (2, 4)])

_SPEC = ChaosSpec(horizon=2.0)


class TestChaosSpec:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(horizon=0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(horizon=1.0, max_outages=-1)


class TestTimeline:
    def test_same_seed_same_timeline(self):
        jobs = [j.job_id for j in chaos_stream()]
        topology = _CHAOS_BROKER.topology
        a = chaos_timeline(7, _SPEC, topology, jobs)
        b = chaos_timeline(7, _SPEC, topology, jobs)
        assert a.faults == b.faults

    def test_transients_stay_inside_default_retry_budget(self):
        jobs = [j.job_id for j in chaos_stream()]
        for seed in range(50):
            schedule = chaos_timeline(seed, _SPEC, _CHAOS_BROKER.topology, jobs)
            for fault in schedule.of_type(TransientJobFailure):
                assert fault.failures <= 2

    def test_every_fault_repairs(self):
        jobs = [j.job_id for j in chaos_stream()]
        for seed in range(50):
            schedule = chaos_timeline(seed, _SPEC, _CHAOS_BROKER.topology, jobs)
            for fault in schedule.faults:
                for key in ("repair_after", "restore_after", "duration"):
                    if hasattr(fault, key):
                        assert getattr(fault, key) is not None


@given(
    seed=st.integers(0, 10_000),
    recovery=st.sampled_from(["resubmit", "migrate"]),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chaos_invariants_for_any_seed(seed, recovery):
    jobs = chaos_stream()
    report = run_campaign(
        _CHAOS_BROKER, jobs, [seed], _SPEC, recovery=recovery
    )
    assert report.ok, "; ".join(report.violations)
    (case,) = report.cases
    assert case.replay_identical
    assert case.completed + case.rejected + case.failed == len(jobs)


class TestVerifyRun:
    def test_flags_lost_and_double_settled_jobs(self):
        jobs = chaos_stream()
        run = _CHAOS_BROKER.run(jobs, "min-completion")
        job_ids = [j.job_id for j in jobs]
        clean = verify_run(run, job_ids, _CHAOS_BROKER.last_ledger)
        assert clean == []
        # A job id the run never saw reads as lost work.
        violations = verify_run(run, job_ids + ["ghost"], None)
        assert any("ghost" in v for v in violations)

    def test_campaign_requires_seeds(self):
        with pytest.raises(ConfigurationError):
            run_campaign(_CHAOS_BROKER, chaos_stream(), [], _SPEC)
