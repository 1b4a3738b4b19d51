"""Pinned ``BrokerReport`` bytes, and the ledger's history on demand.

A digest that moves means a placement moved.  Two sets of pins:

- **Reference grid** (``reference_grid()``, preset traces): computed on
  the commit *before* the pool was re-cut around grants (07800ba, heap +
  membership set, one ``NodeWindow`` per node), fault-free and under a
  chaos timeline.
- **Small grid** (``small_grid()``, 24-job two-VO traces): a fixed table
  of seeds x every policy x ``deadline_fraction`` in {0, 0.5}, and four
  (seed, chaos seed, policy) fault timelines.  These were computed while
  the broker still carried a second, sorted-list event loop with
  uncached calibration, and both loops produced these exact bytes; the
  pins now hold the one engine to that verdict.  Three more fault
  timelines run ``recovery="migrate"``, so resumed attempts pay a
  recovery charge; they were pinned while fault-free and faulted
  placements still took separate dispatch paths.
"""

import hashlib

import pytest

from repro.broker import GridBroker
from repro.broker import events
from repro.broker.policies import POLICY_NAMES
from repro.broker.report import BrokerReport
from repro.faults.chaos import ChaosSpec, chaos_timeline, verify_run
from repro.workloads.traces import (
    REFERENCE_ALLOCATIONS,
    DistributionSpec,
    TraceSpec,
    TraceWorkload,
    VoSpec,
    make_preset,
    reference_grid,
)
from repro.workloads.traces.generate import stream_horizon

from tests.broker.conftest import small_grid

FAULT_FREE = {
    ("poisson", 300):
        "4a433e44563e870fb273aa7b806d45e471c94b2fa95a88e1af4ca90b80368581",
    ("gwa-mixed", 2000):
        "25d835ade013237938de4ea26a59abe04c2a64a0135bce8e43e8b65773eeed3d",
}
#: ``chaos_timeline(0, …)`` over the 300-job poisson stream: an outage,
#: pool shrinks that preempt running jobs and are later restored, WAN
#: degradations and transient aborts — seven preemptions in all.
FAULTED = "ee6412cd6e6bd8b69c20fda73134e7d860a3720cba6d846d362ec44323080661"

#: (seed, deadline_fraction) -> digest of the four-policy report.
SMALL_FAULT_FREE = {
    (0, 0.0):
        "eee1f48ee439ef37ecf4eb6197a5c541ecd74a9dff99eea86f3327e8706371bd",
    (0, 0.5):
        "56d1d47587ec2f1591783e9b2f37a102f2de73cc0ffe98530a94af38aebbd258",
    (1, 0.0):
        "f78328e6ad26b784e7f85c75d703418cbd3d004b38889c093f9d19f298f4937a",
    (1, 0.5):
        "59561188bdbbbcb5deffea5a916a032f425f3d5a7131381e2dc592acc053fdc9",
    (2, 0.0):
        "661a265eebd1b266107d2bd0e1b2595ce0239acf79e6681a7a1a1d7780a50e26",
    (2, 0.5):
        "02074ec6156846a76d50080feb0c884541ef16fe394b02b0b2b08eb33dd2c598",
    (3, 0.0):
        "89236c0955dfc3c29346e095661530772609cf3537521e4620113090fd1077d0",
    (3, 0.5):
        "bfd8aa98c882297966a5f548069fbba2afae14d34070fca92718b5aef0c93b51",
    (17, 0.0):
        "9fb8d0de34b728961ef9d38cc83d121791e3d871df658cdb087a0c00e7e97139",
    (17, 0.5):
        "c06f3f95e532a2afa566c3317bf87061fe5be698bba07ede27825dc68604c325",
    (42, 0.0):
        "b423371aafb9973d7753590e7c369e64d8ad9642364ea672d226d426bb986b9a",
    (42, 0.5):
        "34b8f802dfec866474a09d09a3478696e7bdee54c8a465bfc93d64cc8e3795a2",
    (1009, 0.0):
        "354e381198fe1e06534e8cd3cef4df13abdad2456009f68309064e473a44c221",
    (1009, 0.5):
        "1fac06447284c7b1f1de1797dbd70255ac488ec36988d2daa8ee7cf4272043b2",
    (2**31, 0.0):
        "316de6d640f8bb71ea17b3ce8a978f608ed9a1f9911a6b2193037aab5d5a1132",
    (2**31, 0.5):
        "30f599c1fa3bbbc8343c99f1da3a9ab9109291c4d9633c25be12b1376c59d3a9",
}
#: (seed, chaos seed, policy) -> digest of the one-run report.  Between
#: them: an outage and its repair, pool shrinks and restores, WAN
#: degradations, transient aborts and one retry-budget terminal failure.
SMALL_FAULTED = {
    (0, 0, "min-completion"):
        "68649f53d915c25b5080a3fb3a504fae707896bba5059b35e96e53993b7b4f16",
    (1, 5, "min-cost"):
        "91d4fb80742332cad6c4a2f2a5512d1fc7f04cc522c983357dc95be77eaad631",
    (2, 2, "deadline-aware"):
        "46ec181027736036a47454b47d0b37f5805ce746ce1df895cebd2916c3480fa4",
    (3, 3, "round-robin"):
        "9e2d5f90fba1b0b25582da4a520db005b5201a69aaae818e652371f6b7d42213",
}
#: (seed, chaos seed, policy, deadline_fraction) -> digest of the one-run
#: report under ``recovery="migrate"``: resumed attempts pay T_recover
#: (two of them while a WAN degradation is active in the first pin), and
#: the deadline-aware pin also rejects one job at placement.
SMALL_MIGRATED = {
    (0, 0, "min-completion", 0.0):
        "a03a15923749567ec16f5761962659a7b93fd173085abb90a8114b2044308953",
    (1, 5, "min-cost", 0.5):
        "a622f717092505f058670ba21732269291819c2ae8fe1c6ebcf664fdf3a19b31",
    (0, 1, "deadline-aware", 0.5):
        "a10e8717611d32249c2e0e393daafbd09746d6a4131d8453ff93484e5ea49f2a",
}


@pytest.fixture(scope="module")
def broker():
    return GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)


@pytest.fixture(scope="module")
def small_broker():
    return GridBroker(small_grid(), [(1, 2), (2, 4)])


def trace_jobs(broker, preset, count):
    spec = make_preset(preset, count, seed=1)
    return list(
        TraceWorkload.from_spec(spec, baselines=broker.baseline_estimate).jobs
    )


def small_jobs(broker, seed, deadline_fraction=0.0):
    """24 jobs from two VOs: Weibull and lognormal gaps, priorities,
    and (optionally) deadlines on the first VO's jobs."""
    spec = TraceSpec(
        name="prop",
        count=24,
        seed=seed,
        vos=(
            VoSpec(
                name="alpha",
                weight=2.0,
                interarrival=DistributionSpec.weibull(0.7, 0.05),
                mix=(("kmeans", None, 2.0), ("knn", "350 MB", 1.0)),
                deadline_fraction=deadline_fraction,
                priorities=(0, 1),
                priority_weights=(3.0, 1.0),
            ),
            VoSpec(
                name="beta",
                interarrival=DistributionSpec.lognormal(-3.0, 0.8),
                mix=(("vortex", None, 1.0), ("kmeans", "700 MB", 1.0)),
            ),
        ),
    )
    return list(
        TraceWorkload.from_spec(spec, baselines=broker.baseline_estimate).jobs
    )


def saved_digest(report, tmp_path):
    path = report.save(tmp_path / "report.json")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset,count", sorted(FAULT_FREE))
def test_fault_free_report_bytes_are_pinned(broker, tmp_path, preset, count):
    jobs = trace_jobs(broker, preset, count)
    report = broker.compare(
        preset, jobs, POLICY_NAMES, include_uncalibrated=False
    )
    assert saved_digest(report, tmp_path) == FAULT_FREE[(preset, count)]


def test_faulted_report_bytes_are_pinned(broker, tmp_path):
    jobs = trace_jobs(broker, "poisson", 300)
    job_ids = [job.job_id for job in jobs]
    faults = chaos_timeline(
        0, ChaosSpec(horizon=stream_horizon(jobs)), broker.topology, job_ids
    )
    run = broker.run(jobs, "min-completion", faults=faults)
    # The pin is only worth having while the timeline exercises the pool.
    assert {"pool-shrink", "pool-restore"} <= {
        event.kind for event in run.fault_events
    }
    assert "pool-shrink" in {p.cause for p in run.preemptions}
    assert verify_run(run, job_ids, broker.last_ledger) == []
    report = BrokerReport(name="chaos", runs=(run,))
    assert saved_digest(report, tmp_path) == FAULTED


@pytest.mark.parametrize("seed,deadline_fraction", sorted(SMALL_FAULT_FREE))
def test_small_grid_report_bytes_are_pinned(
    small_broker, tmp_path, seed, deadline_fraction
):
    jobs = small_jobs(small_broker, seed, deadline_fraction)
    report = small_broker.compare(
        "prop", jobs, POLICY_NAMES, include_uncalibrated=False
    )
    assert saved_digest(report, tmp_path) == SMALL_FAULT_FREE[
        (seed, deadline_fraction)
    ]


@pytest.mark.parametrize("seed,chaos_seed,policy", sorted(SMALL_FAULTED))
def test_small_grid_faulted_report_bytes_are_pinned(
    small_broker, tmp_path, seed, chaos_seed, policy
):
    jobs = small_jobs(small_broker, seed)
    job_ids = [job.job_id for job in jobs]
    faults = chaos_timeline(
        chaos_seed,
        ChaosSpec(horizon=stream_horizon(jobs), max_outages=1),
        small_broker.topology,
        job_ids,
    )
    run = small_broker.run(jobs, policy, faults=faults)
    assert run.preemptions
    assert verify_run(run, job_ids, small_broker.last_ledger) == []
    report = BrokerReport(name="prop", runs=(run,))
    assert saved_digest(report, tmp_path) == SMALL_FAULTED[
        (seed, chaos_seed, policy)
    ]


@pytest.mark.parametrize(
    "seed,chaos_seed,policy,deadline_fraction", sorted(SMALL_MIGRATED)
)
def test_small_grid_migrated_report_bytes_are_pinned(
    small_broker, tmp_path, seed, chaos_seed, policy, deadline_fraction
):
    jobs = small_jobs(small_broker, seed, deadline_fraction)
    job_ids = [job.job_id for job in jobs]
    faults = chaos_timeline(
        chaos_seed,
        ChaosSpec(horizon=stream_horizon(jobs), max_outages=1),
        small_broker.topology,
        job_ids,
    )
    run = small_broker.run(jobs, policy, faults=faults, recovery="migrate")
    # The pin is only worth having while some resume pays T_recover.
    assert any(p.recovery_charge > 0 for p in run.placements)
    assert verify_run(run, job_ids, small_broker.last_ledger) == []
    report = BrokerReport(name="prop", runs=(run,))
    assert saved_digest(report, tmp_path) == SMALL_MIGRATED[
        (seed, chaos_seed, policy, deadline_fraction)
    ]


def test_windows_are_derived_only_when_read(broker, monkeypatch):
    built = []

    class CountingWindow(events.NodeWindow):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(events, "NodeWindow", CountingWindow)
    jobs = trace_jobs(broker, "gwa-mixed", 2000)
    run = broker.run(jobs, "min-completion")
    assert built == []

    ledger = broker.last_ledger
    first = ledger.all_windows()
    per_placement = sum(
        p.data_nodes + p.compute_nodes for p in run.placements
    )
    assert len(first) == len(built) == per_placement
    assert ledger.all_windows() == first
