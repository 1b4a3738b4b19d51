"""Kernel traces: record once, price anywhere — exactly.

Every comparison of time breakdowns here is ``==``: a run priced from
another run's pieces must reproduce a from-scratch execution field for
field, events included.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import injector_from_dict
from repro.middleware import FreerideGRuntime, GatherTopology, KernelTrace
from repro.middleware.kernels import MAX_PASSES, KernelBook
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS

from tests.conftest import SumApp, make_tiny_points, small_cluster_spec
from tests.integration.test_end_to_end import SMALL_SIZE

SCENARIO = json.loads(
    (
        pathlib.Path(__file__).parents[1]
        / "workloads"
        / "goldens"
        / "fault_scenario_defect.json"
    ).read_text()
)["metadata"]["scenario"]

GRID = [(1, 4), (2, 4), (4, 8), (8, 16)]


def small_config(n, c, ppn=1, topology=GatherTopology.SERIAL, remote_cache=None):
    cluster = small_cluster_spec()
    config = RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=n,
        compute_nodes=c,
        bandwidth=5e5,
        processes_per_node=ppn,
        gather_topology=topology,
    )
    if remote_cache is not None:
        config = config.with_remote_cache(remote_cache)
    return config


class CountingSumApp(SumApp):
    """SumApp that counts its kernel invocations."""

    calls = 0

    def process_chunk(self, obj, payload, ops):
        type(self).calls += 1
        super().process_chunk(obj, payload, ops)


class TestTraceBinding:
    def test_mismatched_application_names_both_sides(self):
        dataset = make_tiny_points()
        kernels = KernelTrace()
        FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
            SumApp(), dataset
        )
        other = SumApp()
        other.name = "other-app"
        with pytest.raises(ConfigurationError) as err:
            FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
                other, dataset
            )
        assert "sum-app" in str(err.value) and "other-app" in str(err.value)
        assert other.total is None and other._done == 0  # nothing ran

    def test_mismatched_dataset_name_and_chunk_count(self):
        kernels = KernelTrace()
        FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
            SumApp(), make_tiny_points()
        )
        renamed = make_tiny_points()
        renamed.name = "other-points"
        with pytest.raises(ConfigurationError, match="other-points"):
            FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
                SumApp(), renamed
            )
        with pytest.raises(ConfigurationError, match=r"16 chunks.*32 chunks"):
            FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
                SumApp(), make_tiny_points(num_chunks=32)
            )

    def test_missing_pass_is_recorded(self):
        dataset = make_tiny_points()
        kernels = KernelTrace()
        CountingSumApp.calls = 0
        FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
            CountingSumApp(passes=1), dataset
        )
        assert (len(kernels.passes), CountingSumApp.calls) == (1, 16)
        run = FreerideGRuntime(small_config(2, 4), kernels=kernels).execute(
            CountingSumApp(passes=3), dataset
        )
        assert (len(kernels.passes), CountingSumApp.calls) == (3, 48)
        fresh = FreerideGRuntime(small_config(2, 4)).execute(
            SumApp(passes=3), dataset
        )
        assert run.breakdown == fresh.breakdown
        assert run.result == fresh.result

    def test_private_trace_per_execute_call(self):
        runtime = FreerideGRuntime(small_config(1, 2))
        runtime.execute(SumApp(), make_tiny_points())
        runtime.execute(SumApp(), make_tiny_points(num_chunks=32))

    def test_termination_guard(self):
        with pytest.raises(ConfigurationError, match="did not terminate"):
            FreerideGRuntime(small_config(1, 1)).execute(
                SumApp(passes=MAX_PASSES + 1), make_tiny_points(16, 1, 1)
            )


class TestKernelBook:
    def test_one_pair_per_workload_seed_and_size(self):
        book = KernelBook()
        defect = WORKLOADS["defect"]
        dataset, kernels = book.lookup(defect, "130 MB")
        assert isinstance(kernels, KernelTrace) and not kernels.passes
        again, again_kernels = book.lookup(defect, "130 MB")
        assert again is dataset and again_kernels is kernels
        reseeded = dataclasses.replace(defect, seed=defect.seed + 1)
        other, other_kernels = book.lookup(reseeded, "130 MB")
        assert other is not dataset and other_kernels is not kernels
        bigger, _ = book.lookup(defect, "1.8 GB")
        assert bigger.num_chunks > dataset.num_chunks
        assert len(book) == 3


def _variants(n, c):
    """(label, configuration, fault scenario) of the priced variants."""
    config = make_run_config(n, c)
    yield "default", config, None
    yield "tree", config.with_gather_topology(GatherTopology.TREE), None
    yield "faults", config, SCENARIO


def _faults(scenario):
    return None if scenario is None else injector_from_dict(scenario)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_priced_breakdown_equals_fresh_execution(name):
    spec = WORKLOADS[name]
    dataset = spec.make_dataset(SMALL_SIZE[name])
    kernels = KernelTrace()
    recorded = FreerideGRuntime(make_run_config(1, 1), kernels=kernels).execute(
        spec.make_app(), dataset
    )
    fresh_base = FreerideGRuntime(make_run_config(1, 1)).execute(
        spec.make_app(), dataset
    )
    assert recorded.breakdown == fresh_base.breakdown

    for n, c in GRID:
        for label, config, scenario in _variants(n, c):
            priced = FreerideGRuntime(config, _faults(scenario), kernels).execute(
                spec.make_app(), dataset
            )
            fresh = FreerideGRuntime(config, _faults(scenario)).execute(
                spec.make_app(), dataset
            )
            assert priced.breakdown == fresh.breakdown, (name, n, c, label)
    assert len(kernels.passes) == recorded.breakdown.num_passes

    # The reverse direction: record on 4-8, price on 1-1.
    reverse = KernelTrace()
    FreerideGRuntime(make_run_config(4, 8), kernels=reverse).execute(
        spec.make_app(), dataset
    )
    priced = FreerideGRuntime(make_run_config(1, 1), kernels=reverse).execute(
        spec.make_app(), dataset
    )
    assert priced.breakdown == fresh_base.breakdown


@pytest.mark.parametrize(
    "kwargs",
    [dict(ppn=2), dict(remote_cache=1e6), dict(ppn=2, remote_cache=1e6)],
    ids=["smp", "remote-cache", "smp-remote-cache"],
)
def test_smp_and_remote_cache_priced_exactly(kwargs):
    dataset = make_tiny_points()
    kernels = KernelTrace()
    FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
        SumApp(passes=3, cache=True, broadcasts=True), dataset
    )
    for n, c in [(1, 4), (2, 4), (4, 8)]:
        config = small_config(n, c, **kwargs)
        priced = FreerideGRuntime(config, kernels=kernels).execute(
            SumApp(passes=3, cache=True, broadcasts=True), dataset
        )
        fresh = FreerideGRuntime(config).execute(
            SumApp(passes=3, cache=True, broadcasts=True), dataset
        )
        assert priced.breakdown == fresh.breakdown
        assert priced.result == fresh.result


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [(n, c) for n in (1, 2, 4, 8) for c in (1, 2, 4, 8, 16) if c >= n]
    ),
    st.sampled_from([1, 2, 4]),
    st.sampled_from(list(GatherTopology)),
    st.integers(1, 4),
    st.booleans(),
)
def test_any_configuration_prices_from_a_1_1_recording(
    pair, ppn, topology, passes, cache
):
    n, c = pair
    dataset = make_tiny_points()
    kernels = KernelTrace()
    FreerideGRuntime(small_config(1, 1), kernels=kernels).execute(
        SumApp(passes=passes, cache=cache), dataset
    )
    config = small_config(n, c, ppn=ppn, topology=topology)
    priced = FreerideGRuntime(config, kernels=kernels).execute(
        SumApp(passes=passes, cache=cache), dataset
    )
    fresh = FreerideGRuntime(config).execute(
        SumApp(passes=passes, cache=cache), dataset
    )
    assert priced.breakdown == fresh.breakdown
    assert len(kernels.passes) == passes

