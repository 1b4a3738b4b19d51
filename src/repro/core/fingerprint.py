"""Canonical fingerprints for prediction inputs.

The prediction service caches evaluated predictions and serves the
last-known-good entry as a degraded response when the predictor is
unavailable (circuit open) or too slow (deadline).  A cache is only as
trustworthy as its key: two requests may share a cached prediction
*only* when every input that could change the prediction is identical.
This module defines that key in two layers.  :func:`profile_fingerprint`
and :func:`cluster_fingerprint` are SHA-256 digests over the full
compact JSON of a profile or a cluster — content-addressed, not
name-addressed, so a profile update invalidates every dependent entry —
and a holder of long-lived profiles and clusters computes them once.
:func:`prediction_fingerprint` is one more digest over those strings and
the request's own scalars, so a key costs the same dozen-item document
whatever the traffic.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from repro.core.durable import content_digest
from repro.core.profile import Profile
from repro.core.target import PredictionTarget
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.serialize import cluster_to_dict

__all__ = [
    "profile_fingerprint",
    "cluster_fingerprint",
    "prediction_fingerprint",
]


def _profile_dict(profile: Profile) -> Dict[str, Any]:
    # The one list of a profile's fields.  store.profile_to_dict adds
    # the storage format_version on top; the fingerprint must not
    # depend on it, only on model inputs.
    return {
        "app": profile.app,
        "storage_cluster": cluster_to_dict(profile.storage_cluster),
        "compute_cluster": cluster_to_dict(profile.compute_cluster),
        "data_nodes": profile.data_nodes,
        "compute_nodes": profile.compute_nodes,
        "bandwidth": profile.bandwidth,
        "dataset_bytes": profile.dataset_bytes,
        "t_disk": profile.t_disk,
        "t_network": profile.t_network,
        "t_compute": profile.t_compute,
        "t_ro": profile.t_ro,
        "t_g": profile.t_g,
        "max_object_bytes": profile.max_object_bytes,
        "broadcast_bytes": profile.broadcast_bytes,
        "gather_rounds": profile.gather_rounds,
        "processes_per_node": profile.processes_per_node,
        "t_cache": profile.t_cache,
    }


def profile_fingerprint(profile: Profile) -> str:
    """SHA-256 over the model-relevant content of a profile."""
    return content_digest(_profile_dict(profile))


def cluster_fingerprint(cluster: ClusterSpec) -> str:
    """SHA-256 over every parameter of a cluster."""
    return content_digest(cluster_to_dict(cluster))


def prediction_fingerprint(
    profile_digest: str,
    storage_digest: str,
    compute_digest: str,
    target: PredictionTarget,
    model_label: str,
    extra: Sequence[Tuple[str, Any]] = (),
) -> str:
    """Cache key for one (profile, target, model) prediction.

    The three digests are :func:`profile_fingerprint` of the profile and
    :func:`cluster_fingerprint` of the target's storage and compute
    clusters.  ``extra`` admits endpoint-specific inputs (e.g. the
    what-if sweep's configuration pairs) into the key; pairs are
    canonicalized with the rest, so ordering of the *mapping* never
    matters while ordering of a list value does (a sweep over reordered
    pairs is a different sweep).
    """
    config = target.config
    return content_digest(
        {
            "profile": profile_digest,
            "storage_cluster": storage_digest,
            "compute_cluster": compute_digest,
            "data_nodes": config.data_nodes,
            "compute_nodes": config.compute_nodes,
            "bandwidth": config.bandwidth,
            "processes_per_node": config.processes_per_node,
            "dataset_bytes": target.dataset_bytes,
            "model": model_label,
            "extra": {key: value for key, value in extra},
        }
    )
