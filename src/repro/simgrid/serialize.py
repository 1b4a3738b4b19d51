"""JSON-friendly (de)serialization of hardware specifications.

Profiles reference the clusters they were collected on; persisting a
profile (see :mod:`repro.core.store`) therefore needs a faithful
round-trip for :class:`~repro.simgrid.hardware.ClusterSpec` and its
nested specs.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.durable import json_field, json_number, json_value
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


def _disk_from_dict(value: Any, name: str) -> DiskSpec:
    data = json_value(name, value, dict)
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
    """Rebuild a cluster spec from :func:`cluster_to_dict` output."""
    data = json_value("cluster", value, dict)
    cpu = json_value("cpu", data.get("cpu"), dict)
    rates = json_value("cpu.rates", cpu.get("rates"), dict)
    nic = json_value("nic", data.get("nic"), dict)
    try:
        categories = [OpCategory(cat) for cat in rates]
    except ValueError as exc:
        raise ConfigurationError(f"'cpu.rates': {exc}") from exc
    cache_disk = data.get("cache_disk")
    return ClusterSpec(
        name=json_field(data, "name", str),
        node=NodeSpec(
            cpu=CPUSpec(
                name=json_value("cpu.name", cpu.get("name"), str),
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
        num_nodes=json_field(data, "num_nodes", int),
        repository_backplane_bw=json_field(data, "repository_backplane_bw", float),
        node_startup_s=json_field(data, "node_startup_s", float, 0.0),
        compute_pass_startup_s=json_field(data, "compute_pass_startup_s", float, 0.0),
        chunk_dispatch_overhead_s=json_field(
            data, "chunk_dispatch_overhead_s", float, 0.0
        ),
        chunk_receive_overhead_s=json_field(
            data, "chunk_receive_overhead_s", float, 0.0
        ),
        intra_latency_s=json_field(data, "intra_latency_s", float, 0.0),
        intra_bw=json_field(data, "intra_bw", float, 1.0e12),
        gather_deserialize_s=json_field(data, "gather_deserialize_s", float, 0.0),
        cache_disk=(
            None if cache_disk is None
            else _disk_from_dict(cache_disk, "cache_disk")
        ),
        smp_width=json_field(data, "smp_width", int, 1),
        smp_memory_contention=json_field(data, "smp_memory_contention", float, 0.0),
    )
