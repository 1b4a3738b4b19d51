"""Pricing in arrays against the per-chunk formulations it replaced.

A pass's op counts are one ``(chunks, 3)`` array, priced by column
division and folded per thread in hand-out order; a pass whose pieces
are same-shape :class:`ArrayReductionObject` s folds them as one
in-order running sum over a stacked array.  The oracles below are the
previous formulations, kept here as references only:

- every chunk charged an :class:`OpVector`, priced one at a time by
  :meth:`CPUSpec.compute_time` and added with ``sum()`` — written as the
  left fold Python 3.11's ``sum()`` performs, so the oracle means the
  same bits on every interpreter;
- a thread's object was the zero object with each piece ``+=``-ed in.

Every comparison is on ``repr`` or raw bytes: bits, signed zeros and
result types, not tolerances.
"""

import dataclasses
import functools
import hashlib
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.faults import injector_from_dict
from repro.middleware import FreerideGRuntime, GatherTopology, KernelTrace
from repro.middleware.compute_server import ComputeServer
from repro.middleware.instrument import OpCounter
from repro.middleware.kernels import PassPieces, fold_pieces
from repro.middleware.reduction import ArrayReductionObject
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import CPUSpec, OpCategory, OpVector
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS

from tests.conftest import SumApp, make_tiny_points, small_cluster_spec
from tests.integration.test_end_to_end import SMALL_SIZE
from tests.middleware.test_kernels import GRID, SCENARIO, small_config


# ----------------------------------------------------------------------
# Oracles: the per-chunk formulations, verbatim in their arithmetic.
# ----------------------------------------------------------------------


def oracle_sum(values):
    """``sum(values)`` as Python 3.11 evaluates it: a left fold from ``0``."""
    return functools.reduce(operator.add, values, 0)


def oracle_op_time(cpu, ops):
    """``CPUSpec.compute_time`` of one op vector."""
    return (
        ops.flop / cpu.rates[OpCategory.FLOP]
        + ops.mem / cpu.rates[OpCategory.MEM]
        + ops.branch / cpu.rates[OpCategory.BRANCH]
    )


def oracle_compute_time(cluster, thread_chunk_ops):
    """``ComputeServer.smp_compute_time`` over per-chunk op vectors."""
    slowdown = cluster.smp_slowdown(len(thread_chunk_ops))
    cpu = cluster.node.cpu
    per_thread = []
    for chunk_ops in thread_chunk_ops:
        kernel = oracle_sum(oracle_op_time(cpu, ops) for ops in chunk_ops)
        dispatch = len(chunk_ops) * cluster.chunk_dispatch_overhead_s
        per_thread.append(kernel * slowdown + dispatch)
    return cluster.compute_pass_startup_s + max(per_thread)


def oracle_fold(values, counts, chunks, shape):
    """The zero object with each chunk's piece added in, one at a time."""
    obj = ArrayReductionObject.zeros(shape)
    for chunk in chunks:
        obj.values += values[chunk]
        obj.count += counts[chunk]
    return obj


# ----------------------------------------------------------------------
# Op counts and their prices
# ----------------------------------------------------------------------

counts = st.one_of(
    st.integers(0, 10**12),
    st.floats(0.0, 1e15, allow_nan=False),
    st.sampled_from([0, 0.0]),
)
charges = st.tuples(counts, counts, counts)
rates = st.floats(1e3, 1e12, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(st.lists(charges, max_size=30))
def test_op_counter_adds_like_op_vectors(sequence):
    counter = OpCounter()
    oracle = OpVector.zero()
    for flop, mem, branch in sequence:
        counter.charge(flop=flop, mem=mem, branch=branch)
        oracle = oracle + OpVector(flop, mem, branch)
    assert repr(counter.ops) == repr(oracle)
    assert counter.drain() == (oracle.flop, oracle.mem, oracle.branch)
    assert counter.drain() == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["flop", "mem", "branch"])
def test_negative_charge_keeps_its_message_and_the_counts(name):
    counter = OpCounter()
    counter.charge(flop=1.0, mem=2.0, branch=3.0)
    with pytest.raises(ConfigurationError, match=f"negative op count for {name}"):
        counter.charge(**{name: -1.0})
    assert counter.drain() == (1.0, 2.0, 3.0)


def three_rate_cluster(flop, mem, branch):
    cluster = small_cluster_spec()
    cpu = CPUSpec(
        name="three-rate",
        rates={
            OpCategory.FLOP: flop,
            OpCategory.MEM: mem,
            OpCategory.BRANCH: branch,
        },
    )
    return dataclasses.replace(
        cluster, node=dataclasses.replace(cluster.node, cpu=cpu)
    )


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.lists(charges, max_size=3), min_size=1, max_size=24),
    st.tuples(rates, rates, rates),
    st.integers(1, 4),
    st.data(),
)
@example(
    chunk_charges=[[(1, 0.1, 0)]],
    cpu_rates=(3.0e8, 7.0e8, 1.1e8),
    ppn=4,
    data=None,
)
def test_array_pricing_equals_per_chunk_op_vectors(
    chunk_charges, cpu_rates, ppn, data
):
    cluster = three_rate_cluster(*cpu_rates)
    counter = OpCounter()
    ops = np.empty((len(chunk_charges), 3))
    chunk_ops = []
    for chunk, sequence in enumerate(chunk_charges):
        oracle = OpVector.zero()
        for flop, mem, branch in sequence:
            counter.charge(flop=flop, mem=mem, branch=branch)
            oracle = oracle + OpVector(flop, mem, branch)
        ops[chunk] = counter.drain()
        chunk_ops.append(oracle)
    pieces = PassPieces([None] * len(chunk_ops), ops, None)
    chunk_times = pieces.chunk_times(cluster.node.cpu)
    cpu = cluster.node.cpu
    for chunk, vector in enumerate(chunk_ops):
        assert repr(chunk_times[chunk]) == repr(oracle_op_time(cpu, vector))
        assert repr(cpu.compute_time(vector)) == repr(chunk_times[chunk])

    # One node's hand-out, dealt round-robin to its threads; more threads
    # than chunks leaves some threads with nothing to fold.
    everything = list(range(len(chunk_ops)))
    node_chunks = (
        everything
        if data is None
        else data.draw(st.lists(st.sampled_from(everything), unique=True))
    )
    thread_chunks = [node_chunks[t::ppn] for t in range(ppn)]
    config = RunConfig(
        storage_cluster=cluster,
        compute_cluster=cluster,
        data_nodes=1,
        compute_nodes=1,
        bandwidth=5e5,
        processes_per_node=ppn,
    )
    priced = ComputeServer(config, 0).compute_time(chunk_times, thread_chunks)
    expected = oracle_compute_time(
        cluster, [[chunk_ops[c] for c in chunks] for chunks in thread_chunks]
    )
    assert repr(priced) == repr(expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_op_array_is_validated_once_per_pass(bad):
    ops = np.ones((4, 3))
    ops[2, 1] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        PassPieces([None] * 4, ops, None)

    class NaNApp(SumApp):
        def process_chunk(self, obj, payload, ops):
            super().process_chunk(obj, payload, ops)
            ops.charge(branch=bad)

    with pytest.raises(ConfigurationError, match="finite"):
        FreerideGRuntime(small_config(1, 1)).execute(NaNApp(), make_tiny_points())


# ----------------------------------------------------------------------
# Folding stacked pieces
# ----------------------------------------------------------------------


class ZerosApp:
    """Just enough of an application for :func:`fold_pieces`."""

    def __init__(self, shape):
        self.shape = shape

    def make_local_object(self):
        return ArrayReductionObject.zeros(self.shape)


shapes = st.sampled_from([(1,), (5,), (1, 4), (3, 4), (2, 3, 2)])
elements = st.one_of(
    st.floats(-1e8, 1e8, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0]),
)


def make_pieces(values, counts_):
    return [
        ArrayReductionObject(values=v.copy(), count=c)
        for v, c in zip(values, counts_)
    ]


@settings(max_examples=150, deadline=None)
@given(shapes, st.integers(1, 12), st.data())
def test_stacked_fold_equals_sequential_adds(shape, num_chunks, data):
    values = [
        data.draw(hnp.arrays(np.float64, shape, elements=elements))
        for _ in range(num_chunks)
    ]
    counts_ = data.draw(
        st.lists(st.floats(0.0, 1e6) | st.just(-0.0), min_size=num_chunks,
                 max_size=num_chunks)
    )
    pieces = PassPieces(
        make_pieces(values, counts_),
        np.zeros((num_chunks, 3)),
        ArrayReductionObject.zeros(shape),
    )
    assert pieces.stack is not None
    for chunk, piece in enumerate(pieces.objects):
        # Stored once: each piece is a view of its row of the stack.
        assert piece.values.base is pieces.stack
        assert piece.values.tobytes() == values[chunk].tobytes()

    chunks = data.draw(
        st.lists(st.integers(0, num_chunks - 1), unique=True, max_size=num_chunks)
    )
    folded = fold_pieces(ZerosApp(shape), pieces, chunks)
    expected = oracle_fold(values, counts_, chunks, shape)
    assert folded.values.tobytes() == expected.values.tobytes()
    assert repr(folded.count) == repr(expected.count)


def test_stacked_fold_signed_zeros_single_chunk_single_row():
    values = [np.array([-0.0]), np.array([-0.0]), np.array([0.0])]
    pieces = PassPieces(
        make_pieces(values, [0.0, 0.0, 0.0]),
        np.zeros((3, 3)),
        ArrayReductionObject.zeros((1,)),
    )
    for chunks in ([0], [0, 1], [2, 0], [1, 2, 0], []):
        folded = fold_pieces(ZerosApp((1,)), pieces, chunks)
        expected = oracle_fold(values, [0.0] * 3, chunks, (1,))
        assert folded.values.tobytes() == expected.values.tobytes(), chunks


class Subclassed(ArrayReductionObject):
    pass


@pytest.mark.parametrize(
    "objects, zero",
    [
        # a fresh object that is not zero: adding into it is not a
        # running sum, so the pass keeps the merge loop.
        ([ArrayReductionObject.zeros(3)], ArrayReductionObject(np.ones(3))),
        ([ArrayReductionObject.zeros(3)], ArrayReductionObject(np.zeros(3), 1.0)),
        ([ArrayReductionObject.zeros(3), ArrayReductionObject.zeros(4)],
         ArrayReductionObject.zeros(3)),
        ([Subclassed(np.zeros(3))], ArrayReductionObject.zeros(3)),
        ([[0.0]], [0.0]),
    ],
    ids=["nonzero-values", "nonzero-count", "mixed-shapes", "subclass", "other"],
)
def test_only_plain_same_shape_objects_over_a_zero_object_stack(objects, zero):
    pieces = PassPieces(objects, np.zeros((len(objects), 3)), zero)
    assert pieces.stack is None and pieces.counts == []


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------

#: sha256 of the ``repr`` of every breakdown ``run_reprs`` produces.
#: The oracle is the commit before pricing moved to arrays (c9471a6),
#: whose runtimes priced each chunk's op vector and folded pieces one
#: ``merge`` at a time.  Its run list also held one chunk-streaming
#: runtime line per grid point; those lines went with that runtime, and
#: these digests hash the same list without them, every breakdown line
#: byte for byte as the oracle wrote it.  ``repr`` pins values, signed
#: zeros and types (``np.float64`` and the int ``0`` of an empty gather
#: included).
ORACLE_RUNS = {
    "apriori": "3ca64979678774f5001b052f7304a2f3eb646a2f16b5dec7db75c608732a57f4",
    "defect": "d8f01a1fbb2a1984012176b069219adf2bb1e68b61dad0a75e6e271220896cba",
    "em": "5b443c77ccd32e7b92f4f2c45cab7de48290e340aed7ec681ec6b9d1fc02af82",
    "kmeans": "bbe7799afc1ba1a8ac73efb2b21a56effa221ffcdc87fb6aed9ac1beb278ccd2",
    "knn": "e77ed38c45151a8ab70137f3a71b943f47003df6c592f5c2940018ee9fb21986",
    "neuralnet": "fd067ec531cd58b773d36a89e38ca8a5612df530c5b7a154f13857b6c0aab957",
    "vortex": "97e28b186860cc8a714f100d72829f69934a7e39342d457c77479b4f43644de9",
}


def run_reprs(name):
    """Every runtime variant over one shared trace, as ``repr`` lines."""
    spec = WORKLOADS[name]
    dataset = spec.make_dataset(SMALL_SIZE[name])
    kernels = KernelTrace()
    lines = []
    for n, c in GRID:
        config = make_run_config(n, c)
        for runtime in (
            FreerideGRuntime(config, None, kernels),
            FreerideGRuntime(
                config.with_gather_topology(GatherTopology.TREE), None, kernels
            ),
            FreerideGRuntime(config, injector_from_dict(SCENARIO), kernels),
            FreerideGRuntime(small_config(n, c, ppn=3), None, kernels),
            FreerideGRuntime(
                small_config(n, c, ppn=4, remote_cache=1e6), None, kernels
            ),
        ):
            lines.append(repr(runtime.execute(spec.make_app(), dataset).breakdown))
    return lines


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_breakdown_reprs_equal_the_per_chunk_oracle_runs(name):
    digest = hashlib.sha256("\n".join(run_reprs(name)).encode()).hexdigest()
    assert digest == ORACLE_RUNS[name]
