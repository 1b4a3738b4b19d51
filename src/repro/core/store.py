"""Profile persistence.

Profiles are meant to be collected once and reused for many predictions —
possibly in later sessions, by a scheduler daemon, or on another machine.
This module provides a JSON round-trip for
:class:`~repro.core.profile.Profile`: ``repro run --save-profile`` writes
the file and ``repro predict PROFILE`` reads it.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict

from repro.core.durable import (
    atomic_write_json,
    check_format_version,
    json_field,
    read_json_document,
)
from repro.core.fingerprint import _profile_dict
from repro.core.profile import Profile
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.serialize import cluster_from_dict

__all__ = [
    "profile_to_dict",
    "profile_from_dict",
    "save_profile",
    "load_profile",
]

_FORMAT_VERSION = 1


def profile_to_dict(profile: Profile) -> Dict[str, Any]:
    """A JSON-serializable snapshot of a profile."""
    return {"format_version": _FORMAT_VERSION, **_profile_dict(profile)}


def profile_from_dict(data: Dict[str, Any]) -> Profile:
    """Rebuild a profile from :func:`profile_to_dict` output."""
    check_format_version(data, "profile", _FORMAT_VERSION)
    where = "profile: "

    def cluster(key: str) -> ClusterSpec:
        try:
            return cluster_from_dict(data.get(key))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}'{key}': {exc}") from exc

    return Profile(
        app=json_field(data, "app", str, where=where),
        storage_cluster=cluster("storage_cluster"),
        compute_cluster=cluster("compute_cluster"),
        data_nodes=json_field(data, "data_nodes", int, where=where),
        compute_nodes=json_field(data, "compute_nodes", int, where=where),
        bandwidth=json_field(data, "bandwidth", float, where=where),
        dataset_bytes=json_field(data, "dataset_bytes", float, where=where),
        t_disk=json_field(data, "t_disk", float, where=where),
        t_network=json_field(data, "t_network", float, where=where),
        t_compute=json_field(data, "t_compute", float, where=where),
        t_ro=json_field(data, "t_ro", float, where=where),
        t_g=json_field(data, "t_g", float, where=where),
        max_object_bytes=json_field(data, "max_object_bytes", float, where=where),
        broadcast_bytes=json_field(data, "broadcast_bytes", float, 0.0, where=where),
        gather_rounds=json_field(data, "gather_rounds", int, 1, where=where),
        processes_per_node=json_field(data, "processes_per_node", int, 1, where=where),
        t_cache=json_field(data, "t_cache", float, 0.0, where=where),
    )


def save_profile(profile: Profile, path: str | pathlib.Path) -> pathlib.Path:
    """Durably write a profile to a JSON file; returns the path.

    The write is atomic (temp file + fsync + rename), so a crash here
    can never leave a truncated profile behind.
    """
    return atomic_write_json(path, profile_to_dict(profile))


def load_profile(path: str | pathlib.Path) -> Profile:
    """Read a profile from a JSON file."""
    data = read_json_document(
        path,
        "profile",
        remedy="re-profile the workload with "
        "`repro run WORKLOAD ... --save-profile`",
    )
    return profile_from_dict(data)
