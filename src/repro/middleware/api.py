"""The FREERIDE-G generalized-reduction programming interface.

Per Section 2.2 of the paper, "users explicitly provide [the] reduction
object and the local and global reduction functions as part of the API".
An application implements :class:`GeneralizedReduction`; the runtime then
drives the canonical processing structure:

1. ``begin(meta)`` — once, with the dataset metadata.
2. Per pass: ``process_chunk`` folds every chunk into a fresh
   ``make_local_object()`` using associative and commutative updates;
   every compute node holds a replicated reduction object that is the
   merge of its chunks' pieces.
3. Reduction objects are gathered at the master and ``combine`` performs
   the serialized global reduction.
4. ``update(combined)`` lets iterative applications (k-means, EM) absorb the
   global result and request another pass; the combined object is broadcast
   back to compute nodes when ``broadcasts_result`` is True.
5. ``result()`` returns the application output after the final pass.

All computational methods receive an :class:`~repro.middleware.instrument.OpCounter`
and must charge the operations they execute — the only channel through
which an application influences simulated compute time.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Sequence

from repro.errors import UsageError
from repro.middleware.instrument import OpCounter

__all__ = ["GeneralizedReduction"]


class GeneralizedReduction(abc.ABC):
    """Base class for FREERIDE-G applications.

    Subclasses must set :attr:`name` and implement the abstract methods.
    The default :attr:`broadcasts_result` is False (single-shot analytics
    such as kNN or vortex detection); iterative applications override it.
    """

    #: Application identifier used by profiles and the registry.
    name: str = "generalized-reduction"

    #: Whether the combined object is re-broadcast to compute nodes after
    #: every global reduction (iterative applications and the defect
    #: catalog re-broadcast of Section 4.5).
    broadcasts_result: bool = False

    #: Whether the application expects multiple passes over the data, in
    #: which case compute nodes cache received chunks on local disk during
    #: the first pass (Section 2.1's data-caching role).
    multi_pass_hint: bool = False

    @abc.abstractmethod
    def begin(self, meta: Dict[str, Any]) -> None:
        """Reset application state for a fresh run over a dataset."""

    @abc.abstractmethod
    def make_local_object(self) -> Any:
        """A fresh (replicated) reduction object for the coming pass."""

    @abc.abstractmethod
    def process_chunk(self, obj: Any, payload: Any, ops: OpCounter) -> None:
        """Fold one chunk into the local reduction object, in place.

        Updates must be associative and commutative so chunk order and
        chunk-to-node placement cannot change the combined result.

        Both what the call charges to ``ops`` and what it contributes to
        ``obj`` may depend on ``payload`` and on state set in
        :meth:`begin` / :meth:`update` — never on what ``obj`` already
        holds, and the call must leave the application's own state
        alone.  The runtime relies on this: it runs each chunk's kernel
        once into a fresh object and builds every node's object, on
        every configuration, by merging those pieces
        (:mod:`repro.middleware.kernels`).
        """

    @abc.abstractmethod
    def object_nbytes(self, obj: Any) -> float:
        """Serialized size of a reduction object, in model bytes."""

    @abc.abstractmethod
    def combine(self, objs: Sequence[Any], ops: OpCounter) -> Any:
        """Global reduction: merge all local objects at the master."""

    @abc.abstractmethod
    def update(self, combined: Any, ops: OpCounter) -> bool:
        """Absorb the global result; return True to request another pass."""

    @abc.abstractmethod
    def result(self) -> Any:
        """The application output after the final pass."""

    # ------------------------------------------------------------------
    # Conveniences shared by all applications.
    # ------------------------------------------------------------------

    def broadcast_nbytes(self, combined: Any) -> float:
        """Size of the object broadcast back after a global reduction.

        Defaults to the combined object's own size; applications that
        broadcast a digest (e.g. the defect catalog) override this.
        """
        return self.object_nbytes(combined)

    def merge_local(self, objs: Sequence[Any], ops: OpCounter) -> Any:
        """Merge same-pass reduction objects *without* global finalization.

        Used for the shared-memory combine on SMP nodes (the threads of
        one node fold their replicated objects into a single per-node
        object before the inter-node gather), along a tree gather, and
        to fold per-chunk pieces into a node's object when the object
        has no in-place ``merge(other)``.  Unlike :meth:`combine`, this
        must NOT perform application-level post-processing (joining,
        de-noising, catalog matching) — it is a pure associative merge.

        The default handles the two standard reduction-object shapes (and
        is the whole ``combine`` of the array-accumulator applications);
        applications with custom objects override it.
        """
        from repro.middleware.reduction import (
            ArrayReductionObject,
            FeatureListReductionObject,
        )

        if not objs:
            raise UsageError("merge_local needs at least one object")
        first = objs[0]
        if isinstance(first, ArrayReductionObject):
            merged = first.copy()
            for other in objs[1:]:
                merged.merge(other)
                ops.charge(
                    flop=float(merged.values.size),
                    mem=2.0 * merged.values.size,
                )
            return merged
        if isinstance(first, FeatureListReductionObject):
            merged = FeatureListReductionObject(
                bytes_per_feature=first.bytes_per_feature,
                features=list(first.features),
            )
            for other in objs[1:]:
                merged.merge(other)
                ops.charge(mem=2.0 * len(other), branch=float(len(other)))
            return merged
        raise NotImplementedError(
            f"{type(self).__name__} must override merge_local(): its "
            "reduction object is not one of the standard shapes"
        )

    def run_serial(self, payloads: List[Any]) -> Any:
        """Reference single-node execution used by correctness tests.

        Processes every payload into one reduction object, combines, and
        iterates until :meth:`update` declines another pass.
        """
        scratch = OpCounter()
        self_result_requested = True
        while self_result_requested:
            obj = self.make_local_object()
            for payload in payloads:
                self.process_chunk(obj, payload, scratch)
            combined = self.combine([obj], scratch)
            self_result_requested = self.update(combined, scratch)
        return self.result()
