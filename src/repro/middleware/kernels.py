"""Kernel traces: run every chunk kernel once, price it on any configuration.

What the cost model reads from a chunk's kernel does not depend on *which
node* ran it (the contract on
:meth:`~repro.middleware.api.GeneralizedReduction.process_chunk`), so a
:class:`KernelTrace` keeps one :class:`PassPieces` per pass: each chunk's
**piece** (a fresh ``make_local_object()`` that folded only that chunk)
and a ``(chunks, 3)`` array of the (flop, mem, branch) its kernel charged.
Runtimes fold each node's pieces in hand-out order, price chunks from the
array, and run merges, gathers, ``combine``, ``update`` and fault
recovery for real.  A runtime not handed a trace records a private one; a
shared trace lives as long as its owner.  Owners hold their traces in a
:class:`KernelBook`, one ``(dataset, trace)`` pair per (workload, dataset
seed, size label): a ``run_grid_experiment`` call (its own book unless
handed one), a serial campaign run (one book for all its entries and
their retries, which drops a workload's pairs once no later entry names
it, and goes when the run returns) and a ``GridBroker`` (one book for its
lifetime).

A pass is recorded by one ``process_chunk`` call per chunk, unless the
application defines a batched kernel, ``process_pass(dataset)``, and the
dataset is an :class:`ArrayDataset`: then one call returns every chunk's
piece and op row, bit for bit what the per-chunk calls would (k-means and
EM; kNN stays per-chunk, see DESIGN.md §5).

What is exact
-------------
``TimeBreakdown``s (events included) are bit-identical to a from-scratch
execution on every configuration (every charge, object size and
``another_pass`` decision is a function of per-chunk counts, shapes and
integer-valued state), and to pricing one op vector per chunk and adding
in hand-out order, by three rules:

1. divide columns (``ops[:, 0] / r_flop + ...``), never multiply by
   reciprocals: ``x * (1 / r)`` is not ``x / r``;
2. sum in order — :func:`~repro.simgrid.trace.left_sum` or ``np.cumsum``,
   never ``np.sum`` (pairwise on 1-D) nor ``sum()`` (compensated from 3.12);
3. fold stacked pieces from zero: the zero object plus
   ``np.cumsum(stack[chunks], axis=0)[-1]`` is the one-by-one ``+=``,
   signed zeros included, so only passes with an all-zero fresh object stack.

So is the recording run's ``result``; a run priced from *another* run's
pieces matches a fresh run's up to float association in passes >= 2.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.hotpath import hot
from repro.middleware.api import GeneralizedReduction
from repro.middleware.dataset import ArrayDataset, Dataset
from repro.middleware.instrument import OpCounter
from repro.middleware.reduction import ArrayReductionObject
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import CPUSpec
from repro.simgrid.trace import left_sum

__all__ = [
    "DatasetSource",
    "KernelBook",
    "KernelTrace",
    "PassPieces",
    "fold_pieces",
    "MAX_PASSES",
]

#: Safety valve for iterative applications that never converge.
MAX_PASSES = 1000


class PassPieces:
    """One pass: ``objects[c]`` is chunk ``c``'s piece, ``ops[c]`` its
    (flop, mem, branch).  When ``zero`` (a fresh object) is an all-zero
    :class:`ArrayReductionObject` of every piece's shape, ``stack[c]`` and
    ``counts[c]`` hold piece ``c``'s values (its ``values`` becomes a view
    of that row: stored once) and count; otherwise ``stack`` is ``None``."""

    __slots__ = ("objects", "ops", "stack", "counts")

    def __init__(self, objects: List[Any], ops: np.ndarray, zero: Any) -> None:
        if not ((ops >= 0) & (ops < np.inf)).all():
            raise ConfigurationError("op counts must be finite and >= 0")
        self.objects, self.ops = objects, ops
        self.stack: Optional[np.ndarray] = None
        self.counts: List[float] = []
        if _stackable(objects, zero):
            self.stack = np.stack([piece.values for piece in objects])
            for piece, row in zip(objects, self.stack):
                piece.values = row
            self.counts = [piece.count for piece in objects]

    def chunk_times(self, cpu: CPUSpec) -> List[float]:
        """Seconds each chunk's kernel takes on one core of ``cpu``."""
        return cpu.seconds(*self.ops.T).tolist()


def _stackable(objects: Sequence[Any], zero: Any) -> bool:
    if type(zero) is not ArrayReductionObject or zero.count or zero.values.any():
        return False
    like = (zero.values.shape, zero.values.dtype)
    return all(
        type(piece) is ArrayReductionObject
        and (piece.values.shape, piece.values.dtype) == like
        for piece in objects
    )


class KernelTrace:
    """Per-pass, per-chunk pieces of one application over one dataset."""

    def __init__(self) -> None:
        #: ``(app.name, dataset.name, num_chunks)`` of the first execution.
        self.recorded_for: Optional[Tuple[str, str, int]] = None
        #: ``passes[p]`` — the pieces of pass ``p``.
        self.passes: List[PassPieces] = []

    def bind(self, app: GeneralizedReduction, dataset: Dataset) -> None:
        """Claim an empty trace, or check an execution against its record."""
        asked = (app.name, dataset.name, dataset.num_chunks)
        if self.recorded_for is None:
            self.recorded_for = asked
        elif self.recorded_for != asked:
            raise ConfigurationError(
                "kernel trace recorded for application '{}' over dataset "
                "'{}' ({} chunks) cannot price application '{}' over "
                "dataset '{}' ({} chunks)".format(*self.recorded_for, *asked)
            )

    @hot
    def pieces(
        self, app: GeneralizedReduction, dataset: Dataset, pass_index: int
    ) -> PassPieces:
        """The pieces of pass ``pass_index``, running its kernels if new.

        Passes are asked for in order; ``app`` must be in the state its
        ``begin`` / ``update`` calls left it in for that pass.
        """
        if pass_index < len(self.passes):
            return self.passes[pass_index]
        if pass_index >= MAX_PASSES:
            raise ConfigurationError(
                f"application '{app.name}' did not terminate within "
                f"{MAX_PASSES} passes"
            )
        process_pass = getattr(app, "process_pass", None)
        if process_pass is not None and isinstance(dataset, ArrayDataset):
            objects, ops = process_pass(dataset)
        else:
            counter = OpCounter()
            objects = []
            ops = np.empty((dataset.num_chunks, 3))
            for chunk in range(dataset.num_chunks):
                piece = app.make_local_object()
                app.process_chunk(piece, dataset.chunk_payload(chunk), counter)
                objects.append(piece)
                ops[chunk] = counter.drain()
        recorded = PassPieces(objects, ops, app.make_local_object())
        # Appended only whole: an execution abandoned inside this pass (a
        # campaign deadline raising into it) leaves the trace as it was.
        self.passes.append(recorded)
        return recorded


class DatasetSource(Protocol):
    """What a :class:`KernelBook` builds a dataset from (a workload)."""

    @property
    def name(self) -> str: ...

    @property
    def seed(self) -> int: ...

    def make_dataset(self, size_label: Optional[str] = None) -> Dataset: ...


class KernelBook:
    """Datasets and their kernel traces, one pair per (workload name,
    dataset seed, size label), built on first lookup.

    Every execution over a dataset looked up here shares one recording
    of its kernels.  A book is written by whoever looks a pair up, so it
    belongs to one owner at a time and is dropped with that owner.
    """

    def __init__(self) -> None:
        self._pairs: Dict[Tuple[str, int, str], Tuple[Dataset, KernelTrace]] = {}

    def __len__(self) -> int:
        return len(self._pairs)

    def retain(self, workloads: Collection[str]) -> None:
        """Drop every pair whose workload is not named in ``workloads``."""
        self._pairs = {
            key: pair for key, pair in self._pairs.items() if key[0] in workloads
        }

    def lookup(
        self, workload: DatasetSource, size_label: str
    ) -> Tuple[Dataset, KernelTrace]:
        """The dataset ``workload`` builds at ``size_label``, and its trace."""
        key = (workload.name, workload.seed, size_label)
        pair = self._pairs.get(key)
        if pair is None:
            # Stored only once ``make_dataset`` returns, so an execution
            # abandoned while it builds leaves no half pair behind.
            pair = self._pairs[key] = (
                workload.make_dataset(size_label),
                KernelTrace(),
            )
        return pair


@hot
def fold_pieces(
    app: GeneralizedReduction, pieces: PassPieces, chunks: Sequence[int]
) -> Any:
    """A fresh reduction object holding the pieces of ``chunks``, in order.

    Uncharged: the kernels already charged their accumulation.  A stacked
    pass adds its rows' running sum (rule 3); otherwise the pieces fold
    through one in-place ``merge(*pieces)`` call (feature lists, kNN
    candidates) or, lacking one, ``app.merge_local`` with a discarded
    counter.
    """
    obj = app.make_local_object()
    if pieces.stack is not None:
        if chunks:
            obj.accumulate(
                np.cumsum(pieces.stack[chunks], axis=0)[-1],
                left_sum(map(pieces.counts.__getitem__, chunks)),
            )
        return obj
    merge = getattr(obj, "merge", None)
    if merge is not None:
        merge(*map(pieces.objects.__getitem__, chunks))
        return obj
    scratch = OpCounter()
    for chunk in chunks:
        obj = app.merge_local([obj, pieces.objects[chunk]], scratch)
    return obj
