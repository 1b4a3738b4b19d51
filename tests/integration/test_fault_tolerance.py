"""End-to-end fault tolerance over the paper's five applications.

The acceptance bar for the fault subsystem:

1. with faults injected under a fixed seed, every application completes
   and produces a result **identical** to its fault-free run;
2. the degraded-mode predictor lands within 15% of the faulted run on a
   crash scenario for every application;
3. fault-free executions are byte-for-byte unchanged by the subsystem's
   presence (no schedule installed -> zero overhead).
"""

import pytest

from repro.core import (
    DegradedModePredictor,
    GlobalReductionModel,
    ModelClasses,
    PredictionTarget,
    Profile,
    relative_error,
)
from repro.faults import (
    ChunkReadError,
    ComputeNodeCrash,
    DataNodeCrash,
    FaultInjector,
    FaultSchedule,
    LinkDegradation,
)
from repro.middleware import FreerideGRuntime
from repro.workloads.configs import make_run_config
from repro.workloads.registry import WORKLOADS
from tests.conftest import results_equal

SMALL_SIZE = {
    "kmeans": "350 MB",
    "em": "350 MB",
    "knn": "350 MB",
    "vortex": "710 MB",
    "defect": "130 MB",
}

PAPER_APPS = sorted(SMALL_SIZE)

#: One crash scenario per paper application (the acceptance criterion):
#: a data-node crash at 50% of retrieval and a compute-node crash, plus
#: transient noise so the retry path runs everywhere.
SCENARIO = FaultSchedule([
    DataNodeCrash(0, 1, at_fraction=0.5),
    ComputeNodeCrash(0, 2, at_fraction=0.4),
    ChunkReadError(rate=0.1, pass_index=0),
    LinkDegradation(0, factor=1.5),
])


def execute(name, faults=None):
    spec = WORKLOADS[name]
    dataset = spec.make_dataset(SMALL_SIZE[name])
    config = make_run_config(2, 4)
    run = FreerideGRuntime(config, faults=faults).execute(
        spec.make_app(), dataset
    )
    return config, dataset, run


@pytest.mark.parametrize("name", PAPER_APPS)
class TestRecoveryPreservesResults:
    def test_faulted_run_matches_fault_free_bitwise(self, name):
        _, _, baseline = execute(name)
        _, _, faulted = execute(
            name, faults=FaultInjector(SCENARIO, seed=5)
        )
        assert results_equal(faulted.result, baseline.result)
        assert faulted.breakdown.total > baseline.breakdown.total
        kinds = {e["kind"] for e in faulted.breakdown.fault_events}
        assert "data-node-failover" in kinds
        assert "compute-node-recovery" in kinds
        assert faulted.breakdown.t_ckpt > 0.0

    def test_empty_schedule_is_byte_for_byte_fault_free(self, name):
        _, _, baseline = execute(name)
        _, _, armed = execute(
            name, faults=FaultInjector(FaultSchedule())
        )
        assert armed.breakdown.to_dict() == baseline.breakdown.to_dict()
        assert results_equal(armed.result, baseline.result)


def degraded_predictor(name):
    spec = WORKLOADS[name]
    return DegradedModePredictor(
        GlobalReductionModel(
            ModelClasses.parse(
                spec.natural_object_class, spec.natural_global_class
            )
        )
    )


@pytest.mark.parametrize("name", PAPER_APPS)
class TestDegradedModePrediction:
    def test_crash_scenarios_predicted_within_15_percent(self, name):
        config, dataset, baseline = execute(name)
        profile = Profile.from_run(config, baseline.breakdown)
        target = PredictionTarget(config=config, dataset_bytes=dataset.nbytes)
        predictor = degraded_predictor(name)

        for schedule in (
            FaultSchedule([DataNodeCrash(0, 1, at_fraction=0.5)]),
            FaultSchedule([ComputeNodeCrash(0, 2, at_fraction=0.4)]),
        ):
            _, _, faulted = execute(
                name, faults=FaultInjector(schedule, seed=5)
            )
            predicted = predictor.predict(profile, target, schedule)
            error = relative_error(predicted.total, faulted.breakdown.total)
            assert error < 0.15, (
                f"{name}: predicted {predicted.total:.5f}s vs actual "
                f"{faulted.breakdown.total:.5f}s ({100 * error:.1f}%)"
            )
            assert predicted.t_recover > 0.0

    def test_what_if_query_matches_schedule_form(self, name):
        config, dataset, baseline = execute(name)
        profile = Profile.from_run(config, baseline.breakdown)
        target = PredictionTarget(config=config, dataset_bytes=dataset.nbytes)
        predictor = degraded_predictor(name)

        # "What if data node 1 fails halfway through retrieval?" is a
        # one-crash schedule handed to ``predict``.
        what_if = predictor.predict(
            profile, target,
            FaultSchedule([DataNodeCrash(0, 1, at_fraction=0.5)]),
        )
        # The what-if total always exceeds the healthy prediction.
        assert what_if.total > what_if.base.total


class TestChunkReadErrorRateSweep:
    """EM at 350 MB on 2-4 (multi-pass, so recovery runs the checkpoint
    path) under a rising transient read-error rate, seed 17."""

    RATES = [0.0, 0.02, 0.05, 0.1, 0.2]

    @pytest.fixture(scope="class")
    def sweep(self):
        spec = WORKLOADS["em"]
        config, dataset, base = execute("em")
        profile = Profile.from_run(config, base.breakdown)
        target = PredictionTarget(config=config, dataset_bytes=dataset.nbytes)
        predictor = degraded_predictor("em")
        rows = []
        for rate in self.RATES:
            schedule = FaultSchedule(
                [ChunkReadError(rate=rate)] if rate > 0.0 else []
            )
            run = FreerideGRuntime(
                config, faults=FaultInjector(schedule, seed=17)
            ).execute(spec.make_app(), dataset)
            predicted = predictor.predict(profile, target, schedule)
            rows.append((
                run.breakdown.total - base.breakdown.total,
                relative_error(predicted.total, run.breakdown.total),
                results_equal(base.result, run.result),
            ))
        return rows

    def test_results_bit_identical_at_every_rate(self, sweep):
        assert all(identical for _, _, identical in sweep)

    def test_overhead_zero_at_rate_zero_then_monotone(self, sweep):
        overheads = [overhead for overhead, _, _ in sweep]
        assert overheads[0] == 0.0
        assert overheads == sorted(overheads)

    def test_degraded_prediction_within_15_percent(self, sweep):
        errors = [error for _, error, _ in sweep]
        assert all(error < 0.15 for error in errors), errors
