"""Tests for the grid topology."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simgrid.errors import TopologyError
from repro.simgrid.topology import GridTopology, SiteKind

from tests.conftest import small_cluster_spec


@pytest.fixture
def topo():
    cluster = small_cluster_spec()
    t = GridTopology()
    t.add_site("repo-a", SiteKind.REPOSITORY, cluster)
    t.add_site("repo-b", SiteKind.REPOSITORY, cluster)
    t.add_site("hpc-1", SiteKind.COMPUTE, cluster)
    t.add_site("hpc-2", SiteKind.COMPUTE, cluster)
    t.connect("repo-a", "hpc-1", bw=2e6, latency_s=0.01)
    t.connect("repo-a", "hpc-2", bw=5e5, latency_s=0.02)
    t.connect("repo-b", "hpc-2", bw=1e6, latency_s=0.005)
    t.connect("hpc-1", "hpc-2", bw=1e7, latency_s=0.001)
    return t


class TestGridTopology:
    def test_site_lookup(self, topo):
        assert topo.site("repo-a").kind is SiteKind.REPOSITORY
        assert topo.site("hpc-1").kind is SiteKind.COMPUTE

    def test_unknown_site(self, topo):
        with pytest.raises(TopologyError):
            topo.site("nowhere")

    def test_duplicate_site_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.add_site("repo-a", SiteKind.REPOSITORY, small_cluster_spec())

    def test_kind_filters(self, topo):
        assert {s.name for s in topo.repositories()} == {"repo-a", "repo-b"}
        assert {s.name for s in topo.compute_sites()} == {"hpc-1", "hpc-2"}

    def test_direct_bandwidth(self, topo):
        assert topo.bandwidth_between("repo-a", "hpc-1") == 2e6

    def test_multi_hop_bandwidth_is_bottleneck(self, topo):
        # repo-b -> hpc-2 direct is 1e6; repo-b -> hpc-1 must route via
        # hpc-2 and is limited by the narrowest edge.
        assert topo.bandwidth_between("repo-b", "hpc-1") == 1e6

    def test_latency_is_additive(self, topo):
        assert topo.latency_between("repo-b", "hpc-1") == pytest.approx(0.006)

    def test_latency_to_self_is_zero(self, topo):
        assert topo.latency_between("hpc-1", "hpc-1") == 0.0

    def test_bandwidth_to_self_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.bandwidth_between("hpc-1", "hpc-1")

    def test_disconnected_sites(self):
        t = GridTopology()
        t.add_site("a", SiteKind.REPOSITORY, small_cluster_spec())
        t.add_site("b", SiteKind.COMPUTE, small_cluster_spec())
        with pytest.raises(TopologyError):
            t.path("a", "b")

    def test_self_link_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.connect("hpc-1", "hpc-1", bw=1e6)

    def test_invalid_link_parameters(self, topo):
        with pytest.raises(TopologyError):
            topo.connect("repo-a", "repo-b", bw=0)
        with pytest.raises(TopologyError):
            topo.connect("repo-a", "repo-b", bw=1e6, latency_s=-1)

    def test_len_and_contains(self, topo):
        assert len(topo) == 4
        assert "repo-a" in topo
        assert "nowhere" not in topo


def diamond(far_end_first):
    """``a`` reaches ``d`` through ``b`` (1 MB/s) or ``c`` (5 MB/s) in
    two hops; ``far_end_first`` is the middle site ``d`` is linked to
    first."""
    t = GridTopology()
    for name in "abcd":
        t.add_site(name, SiteKind.COMPUTE, small_cluster_spec())
    t.connect("a", "b", bw=1e6, latency_s=0.01)
    t.connect("a", "c", bw=5e6, latency_s=0.02)
    middles = ["b", "c"] if far_end_first == "b" else ["c", "b"]
    for middle in middles:
        t.connect(middle, "d", bw=1e6 if middle == "b" else 5e6, latency_s=0.01)
    return t


class TestEqualHopRoutes:
    """Between equal-hop routes the search meets at the far end's first
    linked neighbour: the forward fringe grows first, then the reverse
    fringe, which is now the smaller one."""

    def test_the_far_end_s_first_link_wins(self):
        t = diamond(far_end_first="b")
        assert t.path("a", "d") == ["a", "b", "d"]
        assert t.bandwidth_between("a", "d") == 1e6
        assert t.latency_between("a", "d") == 0.02

    def test_swapping_the_far_end_s_links_swaps_the_route(self):
        t = diamond(far_end_first="c")
        assert t.path("a", "d") == ["a", "c", "d"]
        assert t.bandwidth_between("a", "d") == 5e6
        assert t.latency_between("a", "d") == 0.03
        # Re-connecting keeps the link's place, so the route stays.
        t.connect("b", "d", bw=9e6, latency_s=0.0)
        assert t.path("a", "d") == ["a", "c", "d"]
        assert t.bandwidth_between("a", "d") == 5e6


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@st.composite
def grids(draw):
    """Up to 8 sites and links drawn between them: pairs repeat (a
    re-connect), and sparse draws leave components apart."""
    size = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
        lambda ab: ab[0] != ab[1]
    )
    link = st.tuples(pair, st.sampled_from([1.0, 2.0, 5e5, 1e6]),
                     st.sampled_from([0.0, 0.001, 0.01, 0.25]))
    links = draw(st.lists(link, max_size=2 * size)) if size > 1 else []
    order = draw(st.permutations([f"s{i}" for i in range(size)]))
    return order, [((order[i], order[j]), bw, lat) for (i, j), bw, lat in links]


@settings(max_examples=300, deadline=None)
@given(grid=grids())
def test_routes_match_networkx(nx, grid):
    names, links = grid
    t, g = GridTopology(), nx.Graph()
    for name in names:
        t.add_site(name, SiteKind.COMPUTE, small_cluster_spec())
        g.add_node(name)
    for (a, b), bw, lat in links:
        t.connect(a, b, bw=bw, latency_s=lat)
        g.add_edge(a, b, bw=bw, latency_s=lat)
    assert t.links() == sorted(tuple(sorted(edge)) for edge in g.edges)
    for a in names:
        for b in names:
            try:
                hops = nx.shortest_path(g, a, b)
            except nx.NetworkXNoPath:
                for query in (t.path, t.bandwidth_between, t.latency_between):
                    with pytest.raises(TopologyError, match="no path"):
                        query(a, b)
                continue
            assert t.path(a, b) == hops
            if a == b:
                assert t.latency_between(a, b) == 0.0
                continue
            edges = [g.edges[u, v] for u, v in zip(hops, hops[1:])]
            latency = 0
            for edge in edges:
                latency += edge["latency_s"]
            assert t.bandwidth_between(a, b) == min(e["bw"] for e in edges)
            assert t.latency_between(a, b) == latency
