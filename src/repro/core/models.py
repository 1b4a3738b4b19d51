"""The paper's prediction equations and the three model levels of Section 5.1.

Every level predicts the same two data-movement terms (Section 3.2):

- ``T̂_disk    = (ŝ/s) · (n/n̂) · t_d``
- ``T̂_network = (ŝ/s) · (n/n̂) · (b/b̂) · t_n``

and differs only in which serialized terms it takes out of the profile's
processing time ``t_c`` and models separately (Section 3.3):

- :class:`NoCommunicationModel` — none: ``T̂_compute = (ŝ/s)(c/ĉ) t_c``
  (linear parallel speedup).
- :class:`ReductionCommunicationModel` — the reduction-object
  communication: ``T' = t_c - T_ro``; ``T̂_compute = (ŝ/s)(c/ĉ) T' + T̂_ro``.
- :class:`GlobalReductionModel` — also the serialized global reduction:
  ``T'' = t_c - T_ro - T_g``; ``T̂_compute = (ŝ/s)(c/ĉ) T'' + T̂_ro + T̂_g``.

``c`` counts parallel reduction *slots* (nodes times processes per node),
which is the paper's compute-node count for pure distributed-memory runs.
The disk term assumes retrieval throughput grows linearly with the number
of storage nodes, and the network term assumes the per-node bandwidth b̂
is known for the target (the paper points at wide-area bandwidth
prediction work [23, 28, 35, 36]; here b̂ comes from the grid topology or
the experiment spec).  All of it is computed in one place, :func:`_predict`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.classes import (
    ModelClasses,
    estimate_global_reduction_time,
    estimate_object_size,
)
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.core.units import Ratio, Seconds
from repro.hotpath import hot
from repro.simgrid.network import CommCostModel

__all__ = [
    "PredictedBreakdown",
    "PredictionModel",
    "NoCommunicationModel",
    "ReductionCommunicationModel",
    "GlobalReductionModel",
]


@dataclass(frozen=True)
class PredictedBreakdown:
    """A predicted execution time, componentwise."""

    t_disk: Seconds
    t_network: Seconds
    t_compute: Seconds
    t_ro: Seconds = 0.0
    t_g: Seconds = 0.0

    @property
    @hot
    def total(self) -> Seconds:
        """T̂_exec = T̂_disk + T̂_network + T̂_compute."""
        return self.t_disk + self.t_network + self.t_compute

    @hot
    def scaled(self, sd: Ratio, sn: Ratio, sc: Ratio) -> "PredictedBreakdown":
        """Componentwise rescaling (used by cross-cluster prediction)."""
        return PredictedBreakdown(
            t_disk=self.t_disk * sd,
            t_network=self.t_network * sn,
            t_compute=self.t_compute * sc,
            t_ro=self.t_ro * sc,
            t_g=self.t_g * sc,
        )


def _predict(
    profile: Profile,
    target: PredictionTarget,
    *,
    classes: ModelClasses | None,
    with_t_g: bool,
) -> PredictedBreakdown:
    """The breakdown of one model level: T̂_ro is modelled when ``classes``
    is given, and T̂_g too when ``with_t_g``.

    T̂_ro is ``w · r̂ + l`` per message (Section 3.3.1), with ``w`` and
    ``l`` fitted once per target cluster by the gather microbenchmark and
    r̂ estimated from the profile's object by its size class.  The master
    receives ``ĉ - 1`` objects per gather round; applications that
    re-broadcast the combined object pay ``ĉ - 1`` further messages of
    the profiled broadcast size.
    """
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    retrieval_ratio = size_ratio * (profile.data_nodes / target.data_nodes)
    processing_ratio = size_ratio * (
        profile.compute_slots / target.config.compute_slots
    )
    t_disk = retrieval_ratio * profile.t_disk
    t_network = (
        retrieval_ratio * (profile.bandwidth / target.bandwidth) * profile.t_network
    )
    if classes is None:
        t_compute = processing_ratio * profile.t_compute
        return PredictedBreakdown(t_disk, t_network, t_compute)
    comm_model = CommCostModel.fit_for_cluster(target.config.compute_cluster)
    r_hat = estimate_object_size(profile, target, classes.object_size)
    per_round = comm_model.gather_time(target.compute_nodes, r_hat)
    if profile.broadcast_bytes > 0:
        per_round += comm_model.gather_time(
            target.compute_nodes, profile.broadcast_bytes
        )
    t_ro = profile.gather_rounds * per_round
    if not with_t_g:
        scalable = max(profile.t_compute - profile.t_ro, 0.0)
        t_compute = processing_ratio * scalable + t_ro
        return PredictedBreakdown(t_disk, t_network, t_compute, t_ro)
    t_g = estimate_global_reduction_time(profile, target, classes.global_reduction)
    t_compute = processing_ratio * profile.scalable_compute + t_ro + t_g
    return PredictedBreakdown(t_disk, t_network, t_compute, t_ro, t_g)


class PredictionModel(abc.ABC):
    """Common interface of the three model levels."""

    #: Display name used in reports (matches the paper's figure legends).
    label: str = "model"

    @abc.abstractmethod
    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        """Predict the target's execution-time breakdown from the profile."""

    def predict_total(self, profile: Profile, target: PredictionTarget) -> float:
        """Convenience: the predicted total execution time."""
        return self.predict(profile, target).total


class NoCommunicationModel(PredictionModel):
    """Linear-speedup compute model; no communication terms."""

    label = "no communication"

    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        return _predict(profile, target, classes=None, with_t_g=False)


class ReductionCommunicationModel(PredictionModel):
    """Models the serialized reduction-object communication (T_ro)."""

    label = "reduction communication"

    def __init__(self, classes: ModelClasses) -> None:
        self.classes = classes

    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        return _predict(profile, target, classes=self.classes, with_t_g=False)


class GlobalReductionModel(PredictionModel):
    """Models both T_ro and the serialized global reduction T_g."""

    label = "global reduction"

    def __init__(self, classes: ModelClasses) -> None:
        self.classes = classes

    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        return _predict(profile, target, classes=self.classes, with_t_g=True)
