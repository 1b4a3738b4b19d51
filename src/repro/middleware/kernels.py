"""Kernel traces: run every chunk kernel once, price it on any configuration.

What the cost model reads from the real NumPy kernels — the
:class:`~repro.simgrid.hardware.OpVector` each ``process_chunk`` call
charged and the reduction object it produced — does not depend on
*which node* processed the chunk (the contract on
:meth:`~repro.middleware.api.GeneralizedReduction.process_chunk`).  A
:class:`KernelTrace` therefore keeps, per pass, one **piece** per chunk:
a fresh ``app.make_local_object()`` that has folded exactly that chunk,
plus the op vector the kernel charged.  A runtime builds each node's (or
thread's) object by folding the pieces of *its* chunks in hand-out order
and reads the per-chunk op vectors from the trace; merges, gathers,
``combine``, ``update``, broadcasts, checkpoints and fault recovery then
run for real on those objects.  This is the only way kernels execute: a
runtime that is not handed a trace records into a private one.  A shared
trace belongs to whoever wants several executions of one application
over one dataset to share kernels (one ``run_grid_experiment`` call, one
``GridBroker``) and lives exactly as long as that owner.

What is exact
-------------
``TimeBreakdown``s (events included) are bit-identical to a from-scratch
execution on every configuration: every charge, object size and
``another_pass`` decision is a function of per-chunk op vectors, shapes
and integer-valued state.  So is ``RunResult.result`` of the run that
recorded the trace (folding a piece into a zero object reproduces the
kernel's own accumulation bit for bit).  The ``result`` of a run priced
from *another* run's pieces is the reduction of the recording run's
per-pass contributions under the new partition: equal to a fresh run up
to floating-point association in passes >= 2, where the recording run's
broadcast state (centres, weights) differs in the last bits.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.hotpath import hot
from repro.middleware.api import GeneralizedReduction
from repro.middleware.dataset import Dataset
from repro.middleware.instrument import OpCounter
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import OpVector

__all__ = ["KernelTrace", "Piece", "fold_pieces", "MAX_PASSES"]

#: Safety valve for iterative applications that never converge.
MAX_PASSES = 1000

#: One chunk's contribution to one pass: (reduction object, charged ops).
Piece = Tuple[Any, OpVector]


class KernelTrace:
    """Per-pass, per-chunk pieces of one application over one dataset."""

    def __init__(self) -> None:
        #: ``(app.name, dataset.name, num_chunks)`` of the first execution.
        self.recorded_for: Optional[Tuple[str, str, int]] = None
        #: ``passes[p][chunk]`` — the piece of ``chunk`` in pass ``p``.
        self.passes: List[List[Piece]] = []

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
    ) -> List[Piece]:
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
        counter = OpCounter()
        recorded: List[Piece] = []
        for chunk in range(dataset.num_chunks):
            piece = app.make_local_object()
            app.process_chunk(piece, dataset.chunk_payload(chunk), counter)
            recorded.append((piece, counter.take()))
        self.passes.append(recorded)
        return recorded


@hot
def fold_pieces(
    app: GeneralizedReduction, pieces: Sequence[Piece], chunks: Sequence[int]
) -> Any:
    """A fresh reduction object holding the pieces of ``chunks``, in order.

    Uncharged: the kernels already charged their accumulation.  Objects
    with an in-place ``merge(other)`` (both standard shapes, kNN
    candidate sets) fold through it; any other object goes through
    ``app.merge_local`` with a discarded counter.
    """
    obj = app.make_local_object()
    merge = getattr(obj, "merge", None)
    if merge is not None:
        for chunk in chunks:
            merge(pieces[chunk][0])
        return obj
    scratch = OpCounter()
    for chunk in chunks:
        obj = app.merge_local([obj, pieces[chunk][0]], scratch)
    return obj
