"""Property-based tests: recovery never changes results, only timing.

The central invariant of the fault-tolerance design (DESIGN.md): for ANY
seeded fault schedule that leaves at least one replica and one compute
node alive, the run completes and the application result is **identical**
to the fault-free result — role-preserving recovery keeps the reduction
merge tree intact, so this holds bitwise, not approximately.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultInjector,
    FaultSchedule,
    LinkDegradation,
    SlowNode,
)
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from tests.conftest import (
    SumApp,
    make_tiny_points,
    results_equal,
    small_cluster_spec,
)

DATA_NODES = 2
COMPUTE_NODES = 4

fractions = st.floats(0.0, 1.0, allow_nan=False)
pass_indices = st.integers(0, 2)

compute_crashes = st.builds(
    ComputeNodeCrash,
    pass_index=pass_indices,
    compute_node=st.integers(0, COMPUTE_NODES - 1),
    at_fraction=fractions,
)
data_crashes = st.builds(
    DataNodeCrash,
    pass_index=pass_indices,
    data_node=st.integers(0, DATA_NODES - 1),
    at_fraction=fractions,
)
link_degradations = st.builds(
    LinkDegradation,
    data_node=st.integers(0, DATA_NODES - 1),
    factor=st.floats(1.0, 4.0),
    from_pass=pass_indices,
)
slow_nodes = st.builds(
    SlowNode,
    compute_node=st.integers(0, COMPUTE_NODES - 1),
    factor=st.floats(1.0, 4.0),
    from_pass=pass_indices,
)
read_errors = st.builds(
    ChunkReadError,
    rate=st.floats(0.01, 0.6),
    pass_index=st.one_of(st.none(), pass_indices),
    data_node=st.one_of(st.none(), st.integers(0, DATA_NODES - 1)),
)


@st.composite
def survivable_schedules(draw):
    """A fault schedule leaving >= 1 compute node and >= 1 replica alive."""
    faults = draw(
        st.lists(
            st.one_of(
                compute_crashes,
                data_crashes,
                link_degradations,
                slow_nodes,
                read_errors,
            ),
            max_size=6,
        )
    )
    # Keep at least one compute node alive: drop surplus compute crashes.
    survivable = []
    crashed = set()
    for fault in faults:
        if isinstance(fault, ComputeNodeCrash):
            if fault.compute_node in crashed:
                continue
            if len(crashed) == COMPUTE_NODES - 1:
                continue
            crashed.add(fault.compute_node)
        survivable.append(fault)
    return FaultSchedule(survivable)


def make_config():
    cluster = small_cluster_spec()
    return RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=DATA_NODES,
        compute_nodes=COMPUTE_NODES,
        bandwidth=5.0e5,
    )


@settings(max_examples=40, deadline=None)
@given(
    schedule=survivable_schedules(),
    seed=st.integers(0, 2**16),
    passes=st.integers(1, 3),
    cache=st.booleans(),
)
def test_survivable_schedules_complete_with_identical_results(
    schedule, seed, passes, cache
):
    config = make_config()
    dataset = make_tiny_points()
    baseline = FreerideGRuntime(config).execute(
        SumApp(passes=passes, cache=cache), dataset
    )
    injector = FaultInjector(
        schedule,
        seed=seed,
        # One standby per possible data-node crash keeps replicas alive.
        replica_sites=[
            f"standby-{i}"
            for i in range(len(schedule.of_type(DataNodeCrash)))
        ],
    )
    faulted = FreerideGRuntime(config, faults=injector).execute(
        SumApp(passes=passes, cache=cache), dataset
    )

    # The run completed; its result is bitwise the fault-free result.
    assert results_equal(faulted.result, baseline.result)
    # Recovery only ever adds time.
    assert faulted.breakdown.total >= baseline.breakdown.total
    assert faulted.breakdown.num_passes == baseline.breakdown.num_passes
    # And is reproducible under the same seed.
    repeat = FreerideGRuntime(
        config,
        faults=FaultInjector(
            schedule,
            seed=seed,
            replica_sites=[
                f"standby-{i}"
                for i in range(len(schedule.of_type(DataNodeCrash)))
            ],
        ),
    ).execute(SumApp(passes=passes, cache=cache), dataset)
    assert repeat.breakdown.passes == faulted.breakdown.passes
