"""Wide-area grid topology connecting repositories and compute sites.

The resource-selection problem of the paper (Section 3: "We are given a
dataset, which is replicated at r sites.  We have also identified c
different computing configurations...") needs to know, for every
(replica site, compute site) pair, the bandwidth and latency of the data
movement path.  This module models the grid as a networkx graph whose edges
carry bandwidth/latency; the effective path bandwidth is the bottleneck
(minimum) edge bandwidth and the path latency is additive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

import networkx as nx

from repro.simgrid.errors import TopologyError
from repro.simgrid.hardware import ClusterSpec
from repro.simgrid.trace import left_sum

__all__ = ["SiteKind", "Site", "GridTopology"]


class SiteKind(str, enum.Enum):
    """Role of a site in the grid."""

    REPOSITORY = "repository"
    COMPUTE = "compute"


@dataclass(frozen=True)
class Site:
    """A named grid site hosting a cluster in a given role."""

    name: str
    kind: SiteKind
    cluster: ClusterSpec


class GridTopology:
    """A graph of sites with bandwidth/latency annotated links.

    >>> from repro.workloads.clusters import pentium_myrinet_cluster
    >>> topo = GridTopology()
    >>> _ = topo.add_site("repo-a", SiteKind.REPOSITORY, pentium_myrinet_cluster())
    >>> _ = topo.add_site("hpc-1", SiteKind.COMPUTE, pentium_myrinet_cluster())
    >>> topo.connect("repo-a", "hpc-1", bw=1.0e6, latency_s=0.01)
    >>> topo.bandwidth_between("repo-a", "hpc-1")
    1000000.0
    """

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._sites: dict[str, Site] = {}

    def add_site(self, name: str, kind: SiteKind, cluster: ClusterSpec) -> Site:
        """Register a site; names must be unique."""
        if name in self._sites:
            raise TopologyError(f"site '{name}' already exists")
        site = Site(name=name, kind=kind, cluster=cluster)
        self._sites[name] = site
        self._graph.add_node(name)
        return site

    def connect(self, a: str, b: str, bw: float, latency_s: float = 0.0) -> None:
        """Add a bidirectional link between two sites."""
        self._require(a)
        self._require(b)
        if a == b:
            raise TopologyError("cannot connect a site to itself")
        if bw <= 0:
            raise TopologyError("link bandwidth must be > 0")
        if latency_s < 0:
            raise TopologyError("link latency must be >= 0")
        self._graph.add_edge(a, b, bw=float(bw), latency_s=float(latency_s))

    def site(self, name: str) -> Site:
        """Look a site up by name."""
        return self._require(name)

    def sites(self, kind: Optional[SiteKind] = None) -> Iterator[Site]:
        """Iterate sites, optionally filtered by role."""
        for site in self._sites.values():
            if kind is None or site.kind is kind:
                yield site

    def repositories(self) -> list[Site]:
        """All repository sites."""
        return list(self.sites(SiteKind.REPOSITORY))

    def compute_sites(self) -> list[Site]:
        """All compute sites."""
        return list(self.sites(SiteKind.COMPUTE))

    def links(self) -> list[tuple[str, str]]:
        """All direct links as sorted (a, b) tuples, sorted."""
        return sorted(tuple(sorted(edge)) for edge in self._graph.edges)

    def path(self, a: str, b: str) -> list[str]:
        """Minimum-hop path between two sites."""
        self._require(a)
        self._require(b)
        try:
            return nx.shortest_path(self._graph, a, b)
        except nx.NetworkXNoPath as exc:
            raise TopologyError(f"no path between '{a}' and '{b}'") from exc

    def bandwidth_between(self, a: str, b: str) -> float:
        """Bottleneck bandwidth along the minimum-hop path (bytes/s)."""
        if a == b:
            raise TopologyError("bandwidth within a site is not path-limited")
        hops = self.path(a, b)
        return min(
            self._graph.edges[u, v]["bw"] for u, v in zip(hops, hops[1:])
        )

    def latency_between(self, a: str, b: str) -> float:
        """Additive latency along the minimum-hop path (seconds)."""
        if a == b:
            return 0.0
        hops = self.path(a, b)
        return left_sum(
            self._graph.edges[u, v]["latency_s"] for u, v in zip(hops, hops[1:])
        )

    def _require(self, name: str) -> Site:
        site = self._sites.get(name)
        if site is None:
            raise TopologyError(f"unknown site '{name}'")
        return site

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, name: object) -> bool:
        return name in self._sites
