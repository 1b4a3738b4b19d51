"""Property suite: the indexed engine is byte-identical to the linear one.

The broker scale-up (DESIGN.md §16) swapped the linear event loop for an
indexed-heap engine.  The contract is not "close" but **identical**: for
any seeded trace, policy, and survivable grid-fault timeline, both
engines must serialize to the same :class:`BrokerReport` bytes.  Runs
are exercised through randomized trace specs (per-VO mixes, deadlines,
priorities) and randomized chaos timelines.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker import GridBroker
from repro.broker.report import BrokerReport
from repro.faults.chaos import ChaosSpec, chaos_timeline
from repro.workloads.traces.generate import stream_horizon
from repro.workloads.traces import (
    DistributionSpec,
    TraceSpec,
    TraceWorkload,
    VoSpec,
)

from tests.broker.conftest import small_grid

POLICIES = ["min-completion", "min-cost", "deadline-aware", "round-robin"]

#: One shared broker: caches are read-only between runs, each run gets a
#: fresh ledger/queue, so property examples stay fast.
BROKER = GridBroker(small_grid(), [(1, 2), (2, 4)])


def make_jobs(seed, count=24, deadline_fraction=0.0):
    spec = TraceSpec(
        name="prop",
        count=count,
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
        TraceWorkload.from_spec(
            spec, baselines=BROKER.baseline_estimate
        ).jobs
    )


def report_bytes(jobs, policy, tmp_path, engine, faults=None):
    run = BROKER.run(jobs, policy, faults=faults, engine=engine)
    path = BrokerReport(name="prop", runs=(run,)).save(
        tmp_path / f"{engine}.json"
    )
    return path.read_bytes()


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("engine-prop")


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    policy=st.sampled_from(POLICIES),
    deadline_fraction=st.sampled_from([0.0, 0.5]),
)
def test_engines_identical_fault_free(
    report_dir, seed, policy, deadline_fraction
):
    jobs = make_jobs(seed, deadline_fraction=deadline_fraction)
    assert report_bytes(jobs, policy, report_dir, "linear") == report_bytes(
        jobs, policy, report_dir, "indexed"
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    chaos_seed=st.integers(0, 2**31),
    policy=st.sampled_from(POLICIES),
)
def test_engines_identical_under_grid_faults(
    report_dir, seed, chaos_seed, policy
):
    jobs = make_jobs(seed)
    faults = chaos_timeline(
        chaos_seed,
        ChaosSpec(horizon=stream_horizon(jobs), max_outages=1),
        BROKER.topology,
        [job.job_id for job in jobs],
    )
    linear = report_bytes(jobs, policy, report_dir, "linear", faults=faults)
    indexed = report_bytes(
        jobs, policy, report_dir, "indexed", faults=faults
    )
    assert linear == indexed
