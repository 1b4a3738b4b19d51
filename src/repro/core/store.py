"""Profile persistence.

Profiles are meant to be collected once and reused for many predictions —
possibly in later sessions, by a scheduler daemon, or on another machine.
This module provides a JSON round-trip for
:class:`~repro.core.profile.Profile` and a small directory-backed store.
"""

from __future__ import annotations

import pathlib
import warnings
from typing import Any, Dict, List

from repro.core.durable import (
    CorruptStoreError,
    atomic_write_json,
    check_format_version,
    json_number,
    quarantine_corrupt,
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
    "ProfileStore",
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


class ProfileStore:
    """A directory of named profiles.

    >>> import tempfile
    >>> from tests.core.conftest import make_profile  # doctest: +SKIP
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> pathlib.Path:
        if not name or "/" in name or name.startswith("."):
            raise ConfigurationError(f"invalid profile name '{name}'")
        return self.directory / f"{name}.json"

    def save(self, name: str, profile: Profile) -> pathlib.Path:
        """Persist a profile under ``name``."""
        return save_profile(profile, self._path(name))

    def load(self, name: str) -> Profile:
        """Load a previously saved profile."""
        return load_profile(self._path(name))

    def names(self) -> List[str]:
        """All stored profile names, sorted."""
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def scan(self) -> Dict[str, Profile]:
        """Load every readable profile; quarantine the corrupt ones.

        A directory scan (a service warm-starting its profile set) must
        not die because one file is truncated: each corrupt profile is
        moved aside to ``<name>.json.corrupt-<hash>`` (see
        :func:`~repro.core.durable.quarantine_corrupt`) with a clear
        warning, and the scan continues with the rest.  Quarantined
        files no longer match the store's ``*.json`` glob, so later
        scans are clean.
        """
        profiles: Dict[str, Profile] = {}
        for name in self.names():
            path = self._path(name)
            try:
                profiles[name] = load_profile(path)
            except CorruptStoreError as exc:
                quarantined = quarantine_corrupt(path)
                warnings.warn(
                    f"profile '{name}' is corrupt and was quarantined to "
                    f"'{quarantined}' (scan continues): {exc}",
                    stacklevel=2,
                )
        return profiles

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._path(name).exists()

    def __len__(self) -> int:
        return len(self.names())
