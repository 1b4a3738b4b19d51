"""Tests for resource and replica selection."""

import itertools

import pytest

from repro.core.classes import ModelClasses
from repro.core.models import GlobalReductionModel, NoCommunicationModel
from repro.core.profile import Profile
from repro.core.selection import ResourceSelector
from repro.middleware.replica import ReplicaCatalog
from repro.middleware.runtime import FreerideGRuntime
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.topology import GridTopology, SiteKind
from repro.workloads.clusters import pentium_myrinet_cluster
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS

from tests.conftest import small_cluster_spec
from tests.core.conftest import make_profile


@pytest.fixture
def grid():
    """Two replicas, two compute sites; repo-b -> hpc-1 has a fat link."""
    topo = GridTopology()
    cluster = small_cluster_spec()
    topo.add_site("repo-a", SiteKind.REPOSITORY, cluster)
    topo.add_site("repo-b", SiteKind.REPOSITORY, cluster)
    topo.add_site("hpc-1", SiteKind.COMPUTE, cluster)
    topo.add_site("hpc-2", SiteKind.COMPUTE, small_cluster_spec(num_nodes=4))
    topo.connect("repo-a", "hpc-1", bw=2e5)
    topo.connect("repo-a", "hpc-2", bw=2e5)
    topo.connect("repo-b", "hpc-1", bw=2e6)

    catalog = ReplicaCatalog(topo)
    catalog.add("points", "repo-a")
    catalog.add("points", "repo-b")
    return topo, catalog


class TestResourceSelector:
    def make_selector(self, grid, allocations=((1, 1), (2, 4), (4, 8))):
        topo, catalog = grid
        return ResourceSelector(
            topology=topo,
            catalog=catalog,
            model_for_site=NoCommunicationModel(),
            allocations=allocations,
        )

    def test_best_minimizes_predicted_total(self, grid):
        selector = self.make_selector(grid)
        outcome = selector.select("points", 1e6, make_profile())
        totals = [c.predicted_total for c in outcome]
        assert totals == sorted(totals)
        assert outcome.best.predicted_total == totals[0]

    def test_prefers_fat_replica_link(self, grid):
        selector = self.make_selector(grid, allocations=[(2, 4)])
        outcome = selector.select("points", 1e6, make_profile())
        # repo-b -> hpc-1 has 10x the bandwidth: network time dominates
        assert outcome.best.replica_site == "repo-b"
        assert outcome.best.compute_site == "hpc-1"

    def test_infeasible_allocations_skipped(self, grid):
        # hpc-2 has only 4 nodes; the (4, 8) allocation is infeasible there
        selector = self.make_selector(grid, allocations=[(4, 8)])
        outcome = selector.select("points", 1e6, make_profile())
        assert all(c.compute_site != "hpc-2" for c in outcome)

    def test_unreachable_pairs_skipped(self, grid):
        topo, catalog = grid
        # An island compute site with no links is silently skipped.
        topo.add_site("hpc-island", SiteKind.COMPUTE, small_cluster_spec())
        selector = self.make_selector(grid, allocations=[(1, 1)])
        outcome = selector.select("points", 1e6, make_profile())
        assert not any(c.compute_site == "hpc-island" for c in outcome)

    def test_compute_sites_filter(self, grid):
        selector = self.make_selector(grid)
        outcome = selector.select(
            "points", 1e6, make_profile(), compute_sites=["hpc-2"]
        )
        assert all(c.compute_site == "hpc-2" for c in outcome)

    def test_unknown_dataset_raises(self, grid):
        selector = self.make_selector(grid)
        from repro.simgrid.errors import TopologyError

        with pytest.raises(TopologyError):
            selector.select("missing", 1e6, make_profile())

    def test_invalid_dataset_size(self, grid):
        selector = self.make_selector(grid)
        with pytest.raises(ConfigurationError):
            selector.select("points", 0.0, make_profile())

    def test_empty_allocations_rejected(self, grid):
        topo, catalog = grid
        with pytest.raises(ConfigurationError):
            ResourceSelector(topo, catalog, NoCommunicationModel(), [])

    def test_callable_model_dispatch(self, grid):
        topo, catalog = grid
        calls = []

        def model_for(site):
            calls.append(site)
            return NoCommunicationModel()

        selector = ResourceSelector(topo, catalog, model_for, [(1, 1)])
        selector.select("points", 1e6, make_profile())
        assert set(calls) == {"hpc-1", "hpc-2"}

    def test_candidate_labels(self, grid):
        selector = self.make_selector(grid, allocations=[(2, 4)])
        outcome = selector.select("points", 1e6, make_profile())
        assert outcome.best.label == "repo-b[2] -> hpc-1[4]"


class TestRejectionReasons:
    def make_selector(self, grid, allocations=((1, 1), (2, 4), (4, 8))):
        topo, catalog = grid
        return ResourceSelector(
            topology=topo,
            catalog=catalog,
            model_for_site=NoCommunicationModel(),
            allocations=allocations,
        )

    def test_infeasible_allocation_recorded(self, grid):
        # hpc-2 has only 4 nodes, so (4, 8) is pruned there — with a reason.
        selector = self.make_selector(grid, allocations=[(4, 8)])
        outcome = selector.select("points", 1e6, make_profile())
        pruned = [r for r in outcome.rejections if r.compute_site == "hpc-2"]
        assert pruned, "expected rejections for the undersized site"
        for r in pruned:
            assert r.code == "infeasible-allocation"
            assert r.data_nodes == 4 and r.compute_nodes == 8
            assert r.reason
            assert "hpc-2" in r.label or r.replica_site in r.label

    def test_unreachable_pair_recorded(self, grid):
        topo, catalog = grid
        topo.add_site("hpc-island", SiteKind.COMPUTE, small_cluster_spec())
        selector = self.make_selector(grid, allocations=[(1, 1)])
        outcome = selector.select("points", 1e6, make_profile())
        island = [
            r for r in outcome.rejections if r.compute_site == "hpc-island"
        ]
        # Both replicas fail to reach the island; site-level rejections
        # carry no allocation.
        assert {r.replica_site for r in island} == {"repo-a", "repo-b"}
        assert all(r.code == "unreachable" for r in island)
        assert all(r.data_nodes is None for r in island)

    def test_all_infeasible_raises_with_reasons(self, grid):
        from repro.core.selection import InfeasibleSelectionError

        selector = self.make_selector(grid, allocations=[(16, 32)])
        with pytest.raises(InfeasibleSelectionError) as excinfo:
            selector.select("points", 1e6, make_profile())
        err = excinfo.value
        assert err.rejections
        assert all(r.code == "infeasible-allocation" for r in err.rejections)
        # The error is still a ConfigurationError for legacy callers.
        assert isinstance(err, ConfigurationError)

    def test_feasible_selection_keeps_empty_rejections(self, grid):
        selector = self.make_selector(grid, allocations=[(1, 1)])
        outcome = selector.select("points", 1e6, make_profile())
        assert outcome.rejections == ()


class TestSelectionQuality:
    """Sections 2.1 and 3: ranking every candidate by prediction must pick
    what running every candidate would.  k-means at 350 MB, two replicas
    (one behind a thin WAN link), seven allocations, all run for real."""

    ALLOCATIONS = [(1, 1), (1, 4), (2, 4), (2, 8), (4, 8), (4, 16), (8, 16)]

    @pytest.fixture(scope="class")
    def ranked(self):
        spec = WORKLOADS["kmeans"]
        dataset = spec.make_dataset("350 MB")
        cluster = pentium_myrinet_cluster()
        topo = GridTopology()
        topo.add_site("repo-near", SiteKind.REPOSITORY, cluster)
        topo.add_site("repo-far", SiteKind.REPOSITORY, cluster)
        topo.add_site("hpc", SiteKind.COMPUTE, cluster)
        topo.connect("repo-near", "hpc", bw=2.0e6)
        topo.connect("repo-far", "hpc", bw=4.0e5)
        catalog = ReplicaCatalog(topo)
        catalog.add(dataset.name, "repo-near")
        catalog.add(dataset.name, "repo-far")

        profile_config = make_run_config(1, 1)
        profile_run = FreerideGRuntime(profile_config).execute(
            spec.make_app(), dataset
        )
        profile = Profile.from_run(profile_config, profile_run.breakdown)
        model = GlobalReductionModel(
            ModelClasses.parse(
                spec.natural_object_class, spec.natural_global_class
            )
        )
        outcome = ResourceSelector(topo, catalog, model, self.ALLOCATIONS).select(
            dataset.name, dataset.nbytes, profile
        )
        actual = {}
        for cand in outcome:
            config = RunConfig(
                storage_cluster=cluster,
                compute_cluster=cluster,
                data_nodes=cand.data_nodes,
                compute_nodes=cand.compute_nodes,
                bandwidth=cand.bandwidth,
            )
            run = FreerideGRuntime(config).execute(spec.make_app(), dataset)
            actual[cand.label] = run.breakdown.total
        return outcome, actual

    def test_predicted_best_regret_under_2_percent(self, ranked):
        outcome, actual = ranked
        regret = actual[outcome.best.label] / min(actual.values()) - 1.0
        assert regret < 0.02

    def test_pairwise_ranking_agreement_over_90_percent(self, ranked):
        outcome, actual = ranked
        pairs = list(itertools.combinations([c.label for c in outcome], 2))
        agree = sum(actual[a] <= actual[b] for a, b in pairs)
        assert agree / len(pairs) > 0.9
