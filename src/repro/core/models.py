"""The three nested prediction models compared in Section 5.1.

- :class:`NoCommunicationModel` — retrieval and communication predictors
  plus the naive linear-speedup compute predictor.
- :class:`ReductionCommunicationModel` — additionally models the
  interprocessor communication of the reduction object:
  ``T' = t_c - T_ro``; ``T̂_compute = (ŝ/s)(c/ĉ) T' + T̂_ro``.
- :class:`GlobalReductionModel` — additionally models the serialized
  global reduction: ``T'' = t_c - T_ro - T_g``;
  ``T̂_compute = (ŝ/s)(c/ĉ) T'' + T̂_ro + T̂_g``.

All three share the component predictors of :mod:`repro.core.predictors`
for ``T̂_disk`` and ``T̂_network``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.classes import (
    ModelClasses,
    estimate_global_reduction_time,
)
from repro.core.predictors import (
    predict_compute_naive,
    predict_disk_time,
    predict_network_time,
    predict_reduction_comm_time,
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
        ratio = sc
        return PredictedBreakdown(
            t_disk=self.t_disk * sd,
            t_network=self.t_network * sn,
            t_compute=self.t_compute * sc,
            t_ro=self.t_ro * ratio,
            t_g=self.t_g * ratio,
        )


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
        return PredictedBreakdown(
            t_disk=predict_disk_time(profile, target),
            t_network=predict_network_time(profile, target),
            t_compute=predict_compute_naive(profile, target),
        )


class ReductionCommunicationModel(PredictionModel):
    """Models the serialized reduction-object communication (T_ro)."""

    label = "reduction communication"

    def __init__(self, classes: ModelClasses) -> None:
        self.classes = classes

    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        comm_model = CommCostModel.fit_for_cluster(target.config.compute_cluster)
        t_ro_hat = predict_reduction_comm_time(
            profile, target, self.classes.object_size, comm_model
        )
        scalable = max(profile.t_compute - profile.t_ro, 0.0)
        size_ratio = target.dataset_bytes / profile.dataset_bytes
        slot_ratio = profile.compute_slots / target.config.compute_slots
        t_compute = size_ratio * slot_ratio * scalable + t_ro_hat
        return PredictedBreakdown(
            t_disk=predict_disk_time(profile, target),
            t_network=predict_network_time(profile, target),
            t_compute=t_compute,
            t_ro=t_ro_hat,
        )


class GlobalReductionModel(PredictionModel):
    """Models both T_ro and the serialized global reduction T_g."""

    label = "global reduction"

    def __init__(self, classes: ModelClasses) -> None:
        self.classes = classes

    def predict(
        self, profile: Profile, target: PredictionTarget
    ) -> PredictedBreakdown:
        comm_model = CommCostModel.fit_for_cluster(target.config.compute_cluster)
        t_ro_hat = predict_reduction_comm_time(
            profile, target, self.classes.object_size, comm_model
        )
        t_g_hat = estimate_global_reduction_time(
            profile, target, self.classes.global_reduction
        )
        scalable = profile.scalable_compute
        size_ratio = target.dataset_bytes / profile.dataset_bytes
        slot_ratio = profile.compute_slots / target.config.compute_slots
        t_compute = size_ratio * slot_ratio * scalable + t_ro_hat + t_g_hat
        return PredictedBreakdown(
            t_disk=predict_disk_time(profile, target),
            t_network=predict_network_time(profile, target),
            t_compute=t_compute,
            t_ro=t_ro_hat,
            t_g=t_g_hat,
        )
