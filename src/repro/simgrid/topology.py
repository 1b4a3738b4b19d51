"""Wide-area grid topology connecting repositories and compute sites.

The resource-selection problem of the paper (Section 3: "We are given a
dataset, which is replicated at r sites.  We have also identified c
different computing configurations...") needs to know, for every
(replica site, compute site) pair, the bandwidth and latency of the data
movement path.  This module models the grid as an undirected graph, held
as an insertion-ordered adjacency dict whose links carry bandwidth/latency;
the effective path bandwidth is the bottleneck (minimum) link bandwidth
along the minimum-hop path and the path latency is additive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

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
        #: ``{site: {neighbour: (bw, latency_s)}}``, both ways per link.
        self._adj: dict[str, dict[str, tuple[float, float]]] = {}
        self._sites: dict[str, Site] = {}

    def add_site(self, name: str, kind: SiteKind, cluster: ClusterSpec) -> Site:
        """Register a site; names must be unique."""
        if name in self._sites:
            raise TopologyError(f"site '{name}' already exists")
        site = Site(name=name, kind=kind, cluster=cluster)
        self._sites[name] = site
        self._adj[name] = {}
        return site

    def connect(self, a: str, b: str, bw: float, latency_s: float = 0.0) -> None:
        """Add a bidirectional link between two sites.

        Re-connecting a linked pair replaces the link's bandwidth and
        latency and keeps its place in each site's neighbour order.
        """
        self._require(a)
        self._require(b)
        if a == b:
            raise TopologyError("cannot connect a site to itself")
        if bw <= 0:
            raise TopologyError("link bandwidth must be > 0")
        if latency_s < 0:
            raise TopologyError("link latency must be >= 0")
        link = (float(bw), float(latency_s))
        self._adj[a][b] = link
        self._adj[b][a] = link

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
        return sorted(
            (a, b) for a, neighbours in self._adj.items() for b in neighbours if a < b
        )

    def path(self, a: str, b: str) -> list[str]:
        """Minimum-hop path between two sites.

        A bidirectional breadth-first search: it grows the smaller
        fringe (the forward one on a tie), visits neighbours in link
        order and stops at the first site both searches have reached.
        That fixes which of several equal-hop routes, and so which
        bottleneck bandwidth, a query sees.
        """
        self._require(a)
        self._require(b)
        if a == b:
            return [a]
        pred: dict[str, Optional[str]] = {a: None}
        succ: dict[str, Optional[str]] = {b: None}
        forward, reverse = [a], [b]
        meet: Optional[str] = None
        while meet is None and forward and reverse:
            if len(forward) <= len(reverse):
                reached, meet = self._level(forward, pred, succ)
                pred.update(reached)
                forward = list(reached)
            else:
                reached, meet = self._level(reverse, succ, pred)
                succ.update(reached)
                reverse = list(reached)
        if meet is None:
            raise TopologyError(f"no path between '{a}' and '{b}'")
        hops: list[str] = []
        node: Optional[str] = meet
        while node is not None:
            hops.append(node)
            node = pred[node]
        hops.reverse()
        node = succ[meet]
        while node is not None:
            hops.append(node)
            node = succ[node]
        return hops

    def _level(
        self,
        fringe: list[str],
        seen: dict[str, Optional[str]],
        other: dict[str, Optional[str]],
    ) -> tuple[dict[str, str], Optional[str]]:
        """One BFS level out of ``fringe``: each newly reached site with
        the site it was reached from, and the first neighbour found in
        ``other`` (the search from the far end), if any."""
        reached: dict[str, str] = {}
        for v in fringe:
            for w in self._adj[v]:
                if w not in seen and w not in reached:
                    reached[w] = v
                if w in other:
                    return reached, w
        return reached, None

    def bandwidth_between(self, a: str, b: str) -> float:
        """Bottleneck bandwidth along the minimum-hop path (bytes/s)."""
        if a == b:
            raise TopologyError("bandwidth within a site is not path-limited")
        hops = self.path(a, b)
        return min(self._adj[u][v][0] for u, v in zip(hops, hops[1:]))

    def latency_between(self, a: str, b: str) -> float:
        """Additive latency along the minimum-hop path (seconds)."""
        if a == b:
            return 0.0
        hops = self.path(a, b)
        return left_sum(self._adj[u][v][1] for u, v in zip(hops, hops[1:]))

    def _require(self, name: str) -> Site:
        site = self._sites.get(name)
        if site is None:
            raise TopologyError(f"unknown site '{name}'")
        return site

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, name: object) -> bool:
        return name in self._sites
