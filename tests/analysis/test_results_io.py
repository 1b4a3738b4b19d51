"""Tests for experiment-result persistence and comparison."""

import pathlib
import re

import pytest

from repro.analysis.results_io import (
    compare_results,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.simgrid.errors import ConfigurationError
from repro.workloads.experiments import ExperimentResult, ExperimentRow


def make_result(errors=(0.01, 0.02), figure="fig02"):
    result = ExperimentResult(figure, "title", "kmeans")
    result.metadata = {"base_profile": "1-1", "dataset_bytes": 1.4e6}
    for (n, c), err in zip([(1, 1), (2, 4)], errors):
        result.rows.append(
            ExperimentRow(n, c, "global reduction", 1.0, 1.0 - err)
        )
    return result


class TestRoundTrip:
    def test_dict_round_trip(self):
        original = make_result()
        rebuilt = result_from_dict(result_to_dict(original))
        assert rebuilt.experiment_id == original.experiment_id
        assert rebuilt.metadata["base_profile"] == "1-1"
        assert [r.error for r in rebuilt.rows] == pytest.approx(
            [r.error for r in original.rows]
        )

    def test_non_json_metadata_becomes_repr(self):
        result = make_result()
        result.metadata["cluster"] = object()
        data = result_to_dict(result)
        assert isinstance(data["metadata"]["cluster"], str)

    def test_file_round_trip(self, tmp_path):
        path = save_result(make_result(), tmp_path / "r.json")
        loaded = load_result(path)
        assert loaded.title == "title"

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_result(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1,2")
        with pytest.raises(ConfigurationError):
            load_result(bad)
        data = result_to_dict(make_result())
        data["format_version"] = 99
        with pytest.raises(ConfigurationError):
            result_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [("actual", "NaN"), ("predicted", "inf"), ("actual", float("nan")),
         ("data_nodes", 1.9), ("compute_nodes", "4"), ("model", 7)],
    )
    def test_rows_are_strict(self, field, value):
        # float() and int() used to load these as nan, inf, 1 and 4.
        data = result_to_dict(make_result())
        data["rows"][1][field] = value
        with pytest.raises(
            ConfigurationError, match=re.escape(f"row 1: '{field}'")
        ):
            result_from_dict(data)


RESULTS = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"


@pytest.mark.parametrize(
    "path", sorted(RESULTS.glob("*.json")), ids=lambda path: path.stem
)
def test_every_committed_result_loads(path):
    assert load_result(path).rows


class TestCompareResults:
    def test_no_change_below_threshold(self):
        deltas = compare_results(make_result(), make_result(), threshold=1e-9)
        assert deltas == []

    def test_regression_detected(self):
        baseline = make_result(errors=(0.01, 0.02))
        current = make_result(errors=(0.01, 0.10))
        deltas = compare_results(baseline, current, threshold=0.01)
        assert len(deltas) == 1
        assert deltas[0].label == "2-4"
        assert deltas[0].delta == pytest.approx(0.08)

    def test_improvement_also_reported(self):
        baseline = make_result(errors=(0.05, 0.02))
        current = make_result(errors=(0.01, 0.02))
        deltas = compare_results(baseline, current, threshold=0.01)
        assert deltas[0].delta < 0

    def test_different_experiments_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_results(make_result(), make_result(figure="fig03"))

    def test_mismatched_cells_rejected(self):
        current = make_result()
        current.rows.append(
            ExperimentRow(4, 8, "global reduction", 1.0, 1.0)
        )
        with pytest.raises(ConfigurationError):
            compare_results(make_result(), current)


class TestDurableResults:
    def test_corrupt_file_names_path_and_remedy(self, tmp_path):
        from repro.core.durable import CorruptStoreError

        path = tmp_path / "r.json"
        path.write_text('{"rows": [')
        with pytest.raises(CorruptStoreError) as excinfo:
            load_result(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "re-run the experiment" in message

    def test_undecodable_file_names_path_and_remedy(self, tmp_path):
        from repro.core.durable import CorruptStoreError

        path = tmp_path / "r.json"
        path.write_bytes(b"\xff\xfe\x00not text")
        with pytest.raises(CorruptStoreError, match="not UTF-8") as excinfo:
            load_result(path)
        assert str(path) in str(excinfo.value)
        assert "re-run the experiment" in str(excinfo.value)

    def test_older_format_version_says_regenerate(self, tmp_path):
        import json

        from repro.core.durable import FormatVersionError

        path = save_result(make_result(), tmp_path / "r.json")
        data = json.loads(path.read_text())
        data["format_version"] = 0
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError, match="older build"):
            load_result(path)
        del data["format_version"]
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError, match="missing or not an"):
            load_result(path)

    def test_future_format_version_rejected(self, tmp_path):
        import json

        from repro.core.durable import FormatVersionError

        path = save_result(make_result(), tmp_path / "r.json")
        data = json.loads(path.read_text())
        data["format_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError, match="newer version"):
            load_result(path)

    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path, monkeypatch):
        import repro.core.durable as durable

        path = save_result(make_result(), tmp_path / "r.json")
        before = path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

        def explode(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(durable.os, "replace", explode)
        with pytest.raises(OSError):
            save_result(make_result(errors=(0.5, 0.5)), path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
