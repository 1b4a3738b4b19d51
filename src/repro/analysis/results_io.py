"""Experiment-result persistence and comparison.

Figure reproductions are deterministic, so a stored result is a baseline:
re-running after a change and diffing against the stored copy is the
regression workflow (`compare_results`), and archived results feed the
report generators without re-running anything.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.durable import (
    atomic_write_json,
    check_format_version,
    json_field,
    json_value,
    read_json_document,
)
from repro.simgrid.errors import ConfigurationError
from repro.workloads.experiments import ExperimentResult, ExperimentRow

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "RowDelta",
    "compare_results",
]

_FORMAT_VERSION = 1


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """A JSON-serializable snapshot of an experiment result."""
    metadata = {}
    for key, value in result.metadata.items():
        if isinstance(value, (str, int, float, bool, list, dict, type(None))):
            metadata[key] = value
        else:
            metadata[key] = repr(value)
    return {
        "format_version": _FORMAT_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "workload": result.workload,
        "metadata": metadata,
        "rows": [
            {
                "data_nodes": row.data_nodes,
                "compute_nodes": row.compute_nodes,
                "model": row.model,
                "actual": row.actual,
                "predicted": row.predicted,
            }
            for row in result.rows
        ],
    }


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an experiment result from :func:`result_to_dict` output."""
    where = "experiment result: "
    json_value("experiment result", data, dict)
    check_format_version(data, "experiment result", _FORMAT_VERSION)
    result = ExperimentResult(
        experiment_id=json_field(data, "experiment_id", str, where=where),
        title=json_field(data, "title", str, where=where),
        workload=json_field(data, "workload", str, where=where),
        metadata=dict(json_field(data, "metadata", dict, {}, where=where)),
    )
    rows = json_field(data, "rows", list, of=dict, where=where)
    for index, row in enumerate(rows):
        where = f"experiment result row {index}: "
        result.rows.append(
            ExperimentRow(
                data_nodes=json_field(row, "data_nodes", int, where=where),
                compute_nodes=json_field(row, "compute_nodes", int, where=where),
                model=json_field(row, "model", str, where=where),
                actual=json_field(row, "actual", float, where=where),
                predicted=json_field(row, "predicted", float, where=where),
            )
        )
    return result


def save_result(
    result: ExperimentResult, path: str | pathlib.Path
) -> pathlib.Path:
    """Durably write an experiment result to a JSON file.

    Results are regression baselines; the write is atomic (temp file +
    fsync + rename) so a crash mid-save cannot corrupt the baseline the
    regression workflow diffs against.
    """
    return atomic_write_json(path, result_to_dict(result))


def load_result(path: str | pathlib.Path) -> ExperimentResult:
    """Read an experiment result from a JSON file.

    A truncated or tampered file raises
    :class:`~repro.core.durable.CorruptStoreError`, an unknown
    ``format_version`` raises
    :class:`~repro.core.durable.FormatVersionError`.
    """
    data = read_json_document(
        path,
        "experiment result",
        remedy="re-run the experiment (`repro figure FIGID`) to "
        "regenerate it",
    )
    return result_from_dict(data)


@dataclass(frozen=True)
class RowDelta:
    """Error change of one (configuration, model) cell between two runs."""

    label: str
    model: str
    baseline_error: float
    current_error: float

    @property
    def delta(self) -> float:
        """Signed change (positive = got worse)."""
        return self.current_error - self.baseline_error


def compare_results(
    baseline: ExperimentResult,
    current: ExperimentResult,
    threshold: float = 0.0,
) -> List[RowDelta]:
    """Cells whose relative error moved by more than ``threshold``.

    Raises when the two results are not the same experiment or do not
    cover the same (configuration, model) cells.
    """
    if baseline.experiment_id != current.experiment_id:
        raise ConfigurationError(
            f"cannot compare '{baseline.experiment_id}' against "
            f"'{current.experiment_id}'"
        )
    base_cells = {(r.label, r.model): r.error for r in baseline.rows}
    cur_cells = {(r.label, r.model): r.error for r in current.rows}
    if set(base_cells) != set(cur_cells):
        raise ConfigurationError(
            "results cover different (configuration, model) cells"
        )
    deltas = [
        RowDelta(
            label=label,
            model=model,
            baseline_error=base_cells[(label, model)],
            current_error=cur_cells[(label, model)],
        )
        for (label, model) in sorted(base_cells)
    ]
    return [d for d in deltas if abs(d.delta) > threshold]
