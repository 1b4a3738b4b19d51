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
    json_number,
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
    """Rebuild a profile from :func:`profile_to_dict` output.

    Strict: ``app`` is a string, node counts and gather rounds are
    integers, every other number is finite.  Anything else is a
    :class:`ConfigurationError` naming the field — never a NaN
    prediction further down.
    """
    check_format_version(data, "profile", _FORMAT_VERSION)

    def number(key: str, default: Any = None, integer: bool = False) -> Any:
        return json_number(key, data.get(key, default), integer, where="profile: ")

    def cluster(key: str) -> ClusterSpec:
        try:
            return cluster_from_dict(data.get(key))
        except ConfigurationError as exc:
            raise ConfigurationError(f"profile: '{key}': {exc}") from exc

    app = data.get("app")
    if not isinstance(app, str):
        raise ConfigurationError(
            f"profile: 'app' must be a string, got {app!r:.40}"
        )
    return Profile(
        app=app,
        storage_cluster=cluster("storage_cluster"),
        compute_cluster=cluster("compute_cluster"),
        data_nodes=number("data_nodes", integer=True),
        compute_nodes=number("compute_nodes", integer=True),
        bandwidth=number("bandwidth"),
        dataset_bytes=number("dataset_bytes"),
        t_disk=number("t_disk"),
        t_network=number("t_network"),
        t_compute=number("t_compute"),
        t_ro=number("t_ro"),
        t_g=number("t_g"),
        max_object_bytes=number("max_object_bytes"),
        broadcast_bytes=number("broadcast_bytes", 0.0),
        gather_rounds=number("gather_rounds", 1, integer=True),
        processes_per_node=number("processes_per_node", 1, integer=True),
        t_cache=number("t_cache", 0.0),
    )


def save_profile(profile: Profile, path: str | pathlib.Path) -> pathlib.Path:
    """Durably write a profile to a JSON file; returns the path.

    The write is atomic (temp file + fsync + rename), so a crash here
    can never leave a truncated profile behind.
    """
    return atomic_write_json(path, profile_to_dict(profile))


def load_profile(path: str | pathlib.Path) -> Profile:
    """Read a profile from a JSON file.

    A truncated or tampered file raises
    :class:`~repro.core.durable.CorruptStoreError`, an unknown
    ``format_version`` raises
    :class:`~repro.core.durable.FormatVersionError`.
    """
    data = read_json_document(
        path,
        "profile",
        remedy="re-profile the workload with "
        "`repro run WORKLOAD ... --save-profile`",
    )
    return profile_from_dict(data)
