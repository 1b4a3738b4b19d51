"""Broker report metrics and canonical serialization."""

import json

import pytest

from repro.broker.report import (
    BrokerPlacement,
    BrokerRejection,
    BrokerReport,
    PolicyRun,
)
from repro.simgrid.errors import ConfigurationError


def placement(
    job_id: str,
    *,
    arrival: float = 0.0,
    start: float = 0.0,
    end: float = 1.0,
    predicted: float = 1.0,
    deadline=None,
) -> BrokerPlacement:
    return BrokerPlacement(
        job_id=job_id,
        workload="knn",
        replica_site="repo",
        compute_site="hpc",
        data_nodes=1,
        compute_nodes=2,
        data_node_ids=(0,),
        compute_node_ids=(0, 1),
        arrival=arrival,
        start=start,
        end=end,
        predicted_total=predicted,
        raw_predicted_total=predicted,
        deadline=deadline,
    )


def run_of(placements, rejections=(), **kwargs) -> PolicyRun:
    return PolicyRun(
        policy=kwargs.pop("policy", "min-completion"),
        calibrated=kwargs.pop("calibrated", True),
        placements=tuple(placements),
        rejections=tuple(rejections),
        error_series=tuple(
            (p.job_id, p.relative_error) for p in placements
        ),
        **kwargs,
    )


class TestPlacementMetrics:
    def test_wait_and_actual(self):
        p = placement("j0", arrival=1.0, start=2.5, end=4.0)
        assert p.wait == 1.5
        assert p.actual_total == 1.5

    def test_relative_error(self):
        p = placement("j0", end=2.0, predicted=1.5)
        assert p.relative_error == pytest.approx(0.25)

    def test_missed_deadline(self):
        assert placement("j0", end=2.0, deadline=1.5).missed_deadline
        assert not placement("j0", end=2.0, deadline=2.0).missed_deadline
        assert not placement("j0", end=2.0).missed_deadline


class TestRunMetrics:
    def test_makespan_and_mean_wait(self):
        run = run_of(
            [
                placement("j0", start=0.0, end=2.0),
                placement("j1", arrival=0.5, start=1.0, end=3.0),
            ]
        )
        assert run.makespan == 3.0
        assert run.mean_wait == pytest.approx(0.25)

    def test_empty_run_metrics(self):
        run = run_of([])
        assert run.makespan == 0.0
        assert run.mean_wait == 0.0
        assert run.deadline_miss_rate == 0.0
        assert run.mean_error() == 0.0

    def test_rejected_deadline_jobs_count_as_missed(self):
        run = run_of(
            [placement("j0", end=1.0, deadline=2.0)],
            rejections=[
                BrokerRejection(
                    job_id="j1",
                    workload="knn",
                    time=0.0,
                    code="deadline-unmeetable",
                    reason="too slow",
                    deadline=0.5,
                ),
                # rejections without a deadline do not enter the rate
                BrokerRejection(
                    job_id="j2",
                    workload="knn",
                    time=0.0,
                    code="no-feasible-configuration",
                    reason="island",
                ),
            ],
        )
        assert run.deadline_miss_rate == pytest.approx(0.5)

    def test_mean_error_window(self):
        run = run_of(
            [
                placement("j0", end=1.0, predicted=2.0),  # err 1.0
                placement("j1", end=1.0, predicted=1.0),  # err 0.0
                placement("j2", end=1.0, predicted=1.5),  # err 0.5
            ]
        )
        assert run.mean_error() == pytest.approx(0.5)
        assert run.mean_error(last=2) == pytest.approx(0.25)

    def test_label_marks_uncalibrated(self):
        assert run_of([]).label == "min-completion"
        assert (
            run_of([], calibrated=False).label
            == "min-completion (uncalibrated)"
        )


class TestSerialization:
    def report(self) -> BrokerReport:
        return BrokerReport(
            name="demo",
            runs=(
                run_of(
                    [placement("j0", end=2.0, deadline=1.0)],
                    calibration_factors={
                        "compute": {"knn @ hpc": 1.25}
                    },
                ),
            ),
        )

    def test_round_trip(self, tmp_path):
        report = self.report()
        path = report.save(tmp_path / "report.json")
        doc = json.loads(path.read_text())
        assert doc == json.loads(json.dumps(report.to_dict()))
        run = doc["runs"][0]
        assert [p["job_id"] for p in run["placements"]] == ["j0"]
        assert run["calibration_factors"] == {"compute": {"knn @ hpc": 1.25}}
        again = report.save(tmp_path / "again.json")
        assert again.read_bytes() == path.read_bytes()

    def test_save_is_byte_stable(self, tmp_path):
        report = self.report()
        a = report.save(tmp_path / "a.json").read_bytes()
        b = report.save(tmp_path / "b.json").read_bytes()
        assert a == b

    def test_metrics_embedded_in_document(self):
        doc = self.report().to_dict()
        metrics = doc["runs"][0]["metrics"]
        assert metrics["completed"] == 1
        assert metrics["deadline_miss_rate"] == 1.0

    def test_run_lookup_by_label_or_policy(self):
        report = self.report()
        assert report.run("min-completion") is report.runs[0]
        with pytest.raises(ConfigurationError):
            report.run("min-cost")
