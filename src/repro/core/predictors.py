"""Component predictors (Sections 3.2-3.3.1 of the paper).

Each function maps (profile, target) to a predicted component time:

- ``predict_disk_time``      — T̂_disk    = (ŝ/s) · (n/n̂) · t_d
- ``predict_network_time``   — T̂_network = (ŝ/s) · (n/n̂) · (b/b̂) · t_n
- ``predict_compute_naive``  — T̂_compute = (ŝ/s) · (c/ĉ) · t_c
  (linear parallel speedup, no communication modelling)
- ``predict_reduction_comm_time`` — T̂_ro from the experimentally fitted
  ``(w, l)`` message cost on the target cluster and the class-estimated
  reduction-object size; ``c - 1`` objects are gathered serially at the
  master, plus the re-broadcast for applications that return the combined
  object to the compute nodes.

The disk predictor assumes retrieval throughput grows linearly with the
number of storage nodes, and the network predictor assumes per-node
bandwidth ``b`` is known for the target (the paper points at wide-area
bandwidth prediction work [23, 28, 35, 36] for obtaining b̂; in this
reproduction b̂ comes from the grid topology or the experiment spec).
"""

from __future__ import annotations

from repro.core.classes import (
    ReductionObjectClass,
    estimate_object_size,
)
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.simgrid.network import CommCostModel

__all__ = [
    "predict_disk_time",
    "predict_network_time",
    "predict_compute_naive",
    "predict_reduction_comm_time",
]


def predict_disk_time(profile: Profile, target: PredictionTarget) -> float:
    """T̂_disk = (ŝ/s) · (n/n̂) · t_d  (Section 3.2)."""
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    node_ratio = profile.data_nodes / target.data_nodes
    return size_ratio * node_ratio * profile.t_disk


def predict_network_time(profile: Profile, target: PredictionTarget) -> float:
    """T̂_network = (ŝ/s) · (n/n̂) · (b/b̂) · t_n  (Section 3.2)."""
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    node_ratio = profile.data_nodes / target.data_nodes
    bw_ratio = profile.bandwidth / target.bandwidth
    return size_ratio * node_ratio * bw_ratio * profile.t_network


def predict_compute_naive(profile: Profile, target: PredictionTarget) -> float:
    """T̂_compute = (ŝ/s) · (c/ĉ) · t_c — linear speedup, no communication.

    ``c`` counts parallel reduction *slots* (nodes times processes per
    node), which reduces to the paper's compute-node count for pure
    distributed-memory runs.
    """
    size_ratio = target.dataset_bytes / profile.dataset_bytes
    slot_ratio = profile.compute_slots / target.config.compute_slots
    return size_ratio * slot_ratio * profile.t_compute


def predict_reduction_comm_time(
    profile: Profile,
    target: PredictionTarget,
    object_class: ReductionObjectClass,
    comm_model: CommCostModel | None = None,
) -> float:
    """T̂_ro: serialized reduction-object communication on the target.

    ``T_ro = w · r + l`` per message (Section 3.3.1) with ``w`` and ``l``
    experimentally determined for the target processing configuration via
    the gather microbenchmark; the master receives ``ĉ - 1`` objects per
    gather round, and applications that re-broadcast the combined object
    pay ``ĉ - 1`` further messages of the profiled broadcast size.
    """
    if comm_model is None:
        comm_model = CommCostModel.fit_for_cluster(target.config.compute_cluster)
    r_hat = estimate_object_size(profile, target, object_class)
    per_round = comm_model.gather_time(target.compute_nodes, r_hat)
    if profile.broadcast_bytes > 0:
        per_round += comm_model.gather_time(
            target.compute_nodes, profile.broadcast_bytes
        )
    return profile.gather_rounds * per_round
