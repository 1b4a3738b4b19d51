"""Tests for the experiment table and the one grid driver."""

import dataclasses
import functools
import pathlib

import pytest

from repro.analysis import compare_results, load_result, result_to_dict
from repro.core.durable import canonical_json
from repro.middleware import FreerideGRuntime
from repro.middleware.kernels import KernelBook
from repro.middleware.scheduler import RunConfig
from repro.simgrid.errors import ConfigurationError
from repro.workloads import experiments
from repro.workloads.configs import make_run_config
from repro.workloads.experiments import (
    EXPERIMENTS,
    FAST_CONFIG_GRID,
    ExperimentResult,
    ExperimentRow,
    ExperimentSpec,
    run_experiment,
    run_fault_scenario,
    run_grid_experiment,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"
BASELINES = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"


class TestExperimentRow:
    def test_error_and_label(self):
        row = ExperimentRow(2, 4, "m", actual=10.0, predicted=9.0)
        assert row.label == "2-4"
        assert row.error == pytest.approx(0.1)


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("figX", "title", "kmeans")
        result.rows = [
            ExperimentRow(1, 1, "a", 10.0, 10.0),
            ExperimentRow(1, 2, "a", 10.0, 9.0),
            ExperimentRow(1, 1, "b", 10.0, 8.0),
        ]
        return result

    def test_models_in_order(self):
        assert self.make().models == ["a", "b"]

    def test_errors_for_model(self):
        assert self.make().errors_for_model("a") == pytest.approx([0.0, 0.1])

    def test_max_and_mean(self):
        result = self.make()
        assert result.max_error("a") == pytest.approx(0.1)
        assert result.mean_error("a") == pytest.approx(0.05)

    def test_missing_model_raises(self):
        with pytest.raises(ConfigurationError):
            self.make().max_error("zzz")


class TestRegistry:
    def test_all_paper_figures_and_extensions_present(self):
        expected = [f"fig{i:02d}" for i in range(2, 14)]
        expected += ["ext-apriori", "ext-neuralnet"]
        assert sorted(EXPERIMENTS) == sorted(expected)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


@pytest.mark.slow
class TestFigureShapes:
    """Fast-grid sanity runs of one experiment per family."""

    def test_model_comparison_family(self):
        result = run_experiment("fig02", fast=True)
        assert len(result.rows) == 3 * len(FAST_CONFIG_GRID)
        assert result.models == [
            "no communication",
            "reduction communication",
            "global reduction",
        ]
        # global reduction is the most accurate on average
        means = [result.mean_error(m) for m in result.models]
        assert means[2] <= means[1] <= means[0]
        assert result.max_error("global reduction") < 0.05

    def test_dataset_scaling_family(self):
        result = run_experiment("fig07", fast=True)
        assert result.models == ["global reduction"]
        assert result.max_error("global reduction") < 0.05
        assert result.metadata["profile_dataset"] == "350 MB"

    def test_bandwidth_family(self):
        result = run_experiment("fig10", fast=True)
        assert result.max_error("global reduction") < 0.05
        assert result.metadata["target_bandwidth"] < result.metadata[
            "profile_bandwidth"
        ]

    def test_cross_cluster_family(self):
        result = run_experiment("fig13", fast=True)
        assert result.models == ["cross-cluster"]
        assert result.max_error("cross-cluster") < 0.12
        assert set(result.metadata["representatives"]) == {"kmeans", "knn", "em"}
        assert 0 < result.metadata["sc"] < 1  # the target cluster is faster

    def test_representative_exclusion_enforced(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                "figX",
                "bad",
                "em",
                profile_size="350 MB",
                target_size="700 MB",
                representatives=("em", "knn"),
            )


@pytest.mark.slow
class TestKernelsRunOncePerExperiment:
    """A count, not a stopwatch: the base profile and every grid cell of
    an experiment are priced from one execution of its chunk kernels."""

    @pytest.mark.parametrize(
        "experiment_id, chunk_passes",
        [
            ("fig02", 352 * 10),  # k-means, 10 iterations
            ("fig05", 352 * 10),  # EM, 5 iterations of an E and an M pass
            ("fig08", 448 + 32),  # defect: the target and the profile dataset
        ],
    )
    def test_process_chunk_called_once_per_dataset_pass_chunk(
        self, kernel_calls, experiment_id, chunk_passes
    ):
        run_experiment(experiment_id, fast=True)
        assert sum(kernel_calls.values()) == chunk_passes

    def test_two_experiments_never_share_a_trace(self, kernel_calls):
        """No process-wide memo: the second call pays its own kernels."""
        first = run_experiment("fig05", fast=True)
        after_first = kernel_calls["em"]
        second = run_experiment("fig05", fast=True)
        assert kernel_calls["em"] == 2 * after_first > 0
        assert second.rows == first.rows


@pytest.mark.slow
class TestOneBookForManyExperiments:
    def test_every_experiment_in_reverse_through_one_book(self):
        """Order independence: each experiment priced from traces other
        experiments recorded (here in reverse table order) gives the
        document a standalone run gives."""
        book = KernelBook()
        for experiment_id in reversed(list(EXPERIMENTS)):
            shared = run_grid_experiment(
                EXPERIMENTS[experiment_id], fast=True, book=book
            )
            alone = run_experiment(experiment_id, fast=True)
            assert result_to_dict(shared) == result_to_dict(alone), experiment_id
        # 14 experiments over 11 distinct (workload, size) datasets.
        assert len(book) == 11


class _UnequalConfig(RunConfig):
    """A :class:`RunConfig` equal only to itself, so no grid cell can
    stand for the base-profile run."""

    __eq__ = object.__eq__
    __hash__ = RunConfig.__hash__


def _unequal_run_config(*args, **kwargs):
    config = make_run_config(*args, **kwargs)
    return _UnequalConfig(
        **{f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    )


@pytest.mark.slow
class TestBaseProfileIsItsGridCell:
    """The 1-1 base-profile run of Figures 2-6 (and the extensions) is
    also their 1-1 grid cell: it runs once, and every document keeps the
    bytes a run that executes the cell again writes."""

    REUSED = {
        "fig02", "fig03", "fig04", "fig05", "fig06",
        "ext-apriori", "ext-neuralnet",
    }
    SCENARIO = {"seed": 3, "faults": [{"type": "chunk-read-error", "rate": 0.05}]}

    @pytest.fixture
    def calls(self, monkeypatch):
        """One item per ``FreerideGRuntime.execute`` call."""
        calls = []
        execute = FreerideGRuntime.execute

        def counted(runtime, app, dataset):
            calls.append(None)
            return execute(runtime, app, dataset)

        monkeypatch.setattr(FreerideGRuntime, "execute", counted)
        return calls

    def _run_all(self, calls):
        """``(executions, document)`` per registered experiment, plus a
        fault scenario, which runs under faults and reuses nothing."""
        book = KernelBook()
        runs = {
            experiment_id: functools.partial(run_grid_experiment, spec, True, book)
            for experiment_id, spec in EXPERIMENTS.items()
        }
        runs["defect-faults"] = functools.partial(
            run_fault_scenario, "defect", "defect-faults", "t", self.SCENARIO,
            fast=True,
        )
        out = {}
        for name, run in runs.items():
            before = len(calls)
            document = canonical_json(result_to_dict(run()))
            out[name] = (len(calls) - before, document)
        return out

    def test_one_execution_fewer_and_the_same_bytes(self, calls, monkeypatch):
        reused = self._run_all(calls)
        monkeypatch.setattr(experiments, "make_run_config", _unequal_run_config)
        bypassed = self._run_all(calls)
        assert reused.keys() == bypassed.keys()
        for name, (count, document) in reused.items():
            saved = 1 if name in self.REUSED else 0
            assert (count + saved, document) == bypassed[name], name
        totals = [sum(n for n, _ in r.values()) for r in (bypassed, reused)]
        assert totals == [93, 86]


def assert_same_result(baseline: ExperimentResult, fresh: ExperimentResult):
    assert compare_results(baseline, fresh, threshold=1e-9) == []
    fresh_doc, baseline_doc = result_to_dict(fresh), result_to_dict(baseline)
    for key in ("title", "workload", "metadata"):
        assert fresh_doc[key] == baseline_doc[key]
    cells = [(r.label, r.model) for r in fresh.rows]
    assert cells == [(r.label, r.model) for r in baseline.rows]


@pytest.mark.slow
class TestProtocolPinned:
    """The driver reproduces the committed results cell for cell."""

    @pytest.mark.parametrize("experiment_id", ["fig04", "fig08", "fig09", "fig12"])
    def test_full_grid_matches_committed_baseline(self, experiment_id):
        """The cheapest full-grid figure of each family, against the
        fidelity baselines ``benchmarks/bench_figures.py`` maintains."""
        workload = EXPERIMENTS[experiment_id].workload
        baseline = load_result(BASELINES / f"{experiment_id}_{workload}.json")
        assert_same_result(baseline, run_experiment(experiment_id))

    def test_fault_scenario_matches_golden(self):
        baseline = load_result(GOLDENS / "fault_scenario_defect.json")
        fresh = run_fault_scenario(
            "defect",
            baseline.experiment_id,
            baseline.title,
            baseline.metadata["scenario"],
            fast=True,
        )
        assert_same_result(baseline, fresh)


class TestExperimentSpec:
    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown workload 'nosuch'"):
            ExperimentSpec("x", "t", "nosuch")

    def test_unknown_size_label(self):
        with pytest.raises(ConfigurationError, match="no dataset size '9 GB'"):
            ExperimentSpec("x", "t", "defect", target_size="9 GB")
        with pytest.raises(ConfigurationError, match="no dataset size '9 GB'"):
            ExperimentSpec("x", "t", "defect", profile_size="9 GB")

    def test_unknown_representative(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            ExperimentSpec("x", "t", "em", representatives=("nosuch",))

    def test_workload_resolved_when_the_experiment_runs(self, monkeypatch):
        """The table holds workload names; re-registering a workload
        (as the benchmark's dataset reseeding does) takes effect."""
        import dataclasses

        from repro.workloads.registry import WORKLOADS

        before = run_experiment("fig04", fast=True)
        reseeded = dataclasses.replace(
            WORKLOADS["defect"], seed=WORKLOADS["defect"].seed + 1
        )
        monkeypatch.setitem(WORKLOADS, "defect", reseeded)
        after = run_experiment("fig04", fast=True)
        assert [r.actual for r in after.rows] != [r.actual for r in before.rows]
