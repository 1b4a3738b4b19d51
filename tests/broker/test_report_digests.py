"""Pinned ``BrokerReport`` bytes, and the ledger's history on demand.

Both engines share one :class:`~repro.broker.events.SitePool`, so the
linear-vs-indexed suite can no longer catch a pool change that moves
both the same way.  These digests were computed on the commit *before*
the pool was re-cut around grants (07800ba, heap + membership set, one
``NodeWindow`` per node) and pin the saved report bytes of fault-free
and faulted runs on the reference grid: a digest that moves means a
placement moved.
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
    TraceWorkload,
    make_preset,
    reference_grid,
)
from repro.workloads.traces.generate import stream_horizon

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


@pytest.fixture(scope="module")
def broker():
    return GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)


def trace_jobs(broker, preset, count):
    spec = make_preset(preset, count, seed=1)
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


@pytest.mark.parametrize("engine", ["indexed", "linear"])
def test_faulted_report_bytes_are_pinned(broker, tmp_path, engine):
    jobs = trace_jobs(broker, "poisson", 300)
    job_ids = [job.job_id for job in jobs]
    faults = chaos_timeline(
        0, ChaosSpec(horizon=stream_horizon(jobs)), broker.topology, job_ids
    )
    run = broker.run(jobs, "min-completion", faults=faults, engine=engine)
    # The pin is only worth having while the timeline exercises the pool.
    assert {"pool-shrink", "pool-restore"} <= {
        event.kind for event in run.fault_events
    }
    assert "pool-shrink" in {p.cause for p in run.preemptions}
    assert verify_run(run, job_ids, broker.last_ledger) == []
    report = BrokerReport(name="chaos", runs=(run,))
    assert saved_digest(report, tmp_path) == FAULTED


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
