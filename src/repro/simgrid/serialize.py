"""JSON-friendly (de)serialization of hardware specifications.

Profiles reference the clusters they were collected on; persisting a
profile (see :mod:`repro.core.store`) therefore needs a faithful
round-trip for :class:`~repro.simgrid.hardware.ClusterSpec` and its
nested specs.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.core.durable import json_number
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.hardware import (
    ClusterSpec,
    CPUSpec,
    DiskSpec,
    NICSpec,
    NodeSpec,
    OpCategory,
)

__all__ = ["cluster_to_dict", "cluster_from_dict"]


def _disk_to_dict(disk: DiskSpec) -> Dict[str, float]:
    return {"seek_s": disk.seek_s, "stream_bw": disk.stream_bw}


def _object(value: Any, name: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"'{name}' must be a JSON object, got {value!r:.40}"
        )
    return value


def _text(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"'{name}' must be a string, got {value!r:.40}")
    return value


def _disk_from_dict(value: Any, name: str) -> DiskSpec:
    data = _object(value, name)
    return DiskSpec(
        seek_s=json_number(f"{name}.seek_s", data.get("seek_s")),
        stream_bw=json_number(f"{name}.stream_bw", data.get("stream_bw")),
    )


def cluster_to_dict(cluster: ClusterSpec) -> Dict[str, Any]:
    """A plain-dict snapshot of a cluster spec (JSON serializable)."""
    node = cluster.node
    return {
        "name": cluster.name,
        "num_nodes": cluster.num_nodes,
        "cpu": {
            "name": node.cpu.name,
            "rates": {cat.value: rate for cat, rate in node.cpu.rates.items()},
        },
        "disk": _disk_to_dict(node.disk),
        "nic": {"latency_s": node.nic.latency_s, "bw": node.nic.bw},
        "repository_backplane_bw": cluster.repository_backplane_bw,
        "node_startup_s": cluster.node_startup_s,
        "compute_pass_startup_s": cluster.compute_pass_startup_s,
        "chunk_dispatch_overhead_s": cluster.chunk_dispatch_overhead_s,
        "chunk_receive_overhead_s": cluster.chunk_receive_overhead_s,
        "intra_latency_s": cluster.intra_latency_s,
        "intra_bw": cluster.intra_bw,
        "gather_deserialize_s": cluster.gather_deserialize_s,
        "cache_disk": (
            _disk_to_dict(cluster.cache_disk)
            if cluster.cache_disk is not None
            else None
        ),
        "smp_width": cluster.smp_width,
        "smp_memory_contention": cluster.smp_memory_contention,
    }


def cluster_from_dict(value: Any) -> ClusterSpec:
    """Rebuild a cluster spec from :func:`cluster_to_dict` output.

    Strict, like every loader of a stored file: nested specs are JSON
    objects, names are strings, counts are integers and every other
    number is finite; anything else is a :class:`ConfigurationError`
    naming the field.
    """
    data = _object(value, "cluster")
    cpu = _object(data.get("cpu"), "cpu")
    rates = _object(cpu.get("rates"), "cpu.rates")
    nic = _object(data.get("nic"), "nic")
    cache_disk = data.get("cache_disk")
    try:
        categories = [OpCategory(cat) for cat in rates]
    except ValueError as exc:
        raise ConfigurationError(f"'cpu.rates': {exc}") from exc

    def number(key: str, default: Any = None, integer: bool = False) -> Any:
        return json_number(key, data.get(key, default), integer)

    return ClusterSpec(
        name=_text(data.get("name"), "name"),
        node=NodeSpec(
            cpu=CPUSpec(
                name=_text(cpu.get("name"), "cpu.name"),
                rates={
                    cat: json_number(f"cpu.rates.{cat.value}", rates[cat.value])
                    for cat in categories
                },
            ),
            disk=_disk_from_dict(data.get("disk"), "disk"),
            nic=NICSpec(
                latency_s=json_number("nic.latency_s", nic.get("latency_s")),
                bw=json_number("nic.bw", nic.get("bw")),
            ),
        ),
        num_nodes=number("num_nodes", integer=True),
        repository_backplane_bw=number("repository_backplane_bw"),
        node_startup_s=number("node_startup_s", 0.0),
        compute_pass_startup_s=number("compute_pass_startup_s", 0.0),
        chunk_dispatch_overhead_s=number("chunk_dispatch_overhead_s", 0.0),
        chunk_receive_overhead_s=number("chunk_receive_overhead_s", 0.0),
        intra_latency_s=number("intra_latency_s", 0.0),
        intra_bw=number("intra_bw", 1.0e12),
        gather_deserialize_s=number("gather_deserialize_s", 0.0),
        cache_disk=(
            None if cache_disk is None
            else _disk_from_dict(cache_disk, "cache_disk")
        ),
        smp_width=number("smp_width", 1, integer=True),
        smp_memory_contention=number("smp_memory_contention", 0.0),
    )
