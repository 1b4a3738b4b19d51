"""The paper's qualitative claims, as checkable data.

Every evaluation figure of the paper comes with qualitative claims — which
model wins, where the hard configurations are, how large errors get.  This
module encodes them as :class:`FigureExpectation` records and provides a
checker, so "does the reproduction still match the paper?" is a single
function call (used by the benchmark harness and the regression tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.stats import mean, model_ordering_holds
from repro.simgrid.errors import ConfigurationError
from repro.workloads.experiments import ExperimentResult

__all__ = ["FigureExpectation", "EXPECTATIONS", "check_expectation"]


@dataclass(frozen=True)
class FigureExpectation:
    """What the paper's figure shows, reduced to checkable properties.

    Attributes
    ----------
    figure:
        Experiment id (``fig02`` ... ``fig13``, ``ext-*``).
    models_ordered:
        Whether the nested models must be ordered by mean error.
    max_error_bounds:
        Per-model worst-case relative-error ceilings (fractions).
    worst_at_scale_up:
        Model whose worst configuration must have >= 8 compute nodes.
    equal_nodes_hardest:
        Model for which the mean error over equal-node-count
        configurations must exceed the mean over 16-compute-node ones.
    """

    figure: str
    models_ordered: bool = False
    max_error_bounds: Dict[str, float] = field(default_factory=dict)
    worst_at_scale_up: Optional[str] = None
    equal_nodes_hardest: Optional[str] = None


#: One expectation record per reproduced figure.
EXPECTATIONS: Dict[str, FigureExpectation] = {
    "fig02": FigureExpectation(
        "fig02",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.05, "no communication": 0.12},
        worst_at_scale_up="no communication",
    ),
    "fig03": FigureExpectation(
        "fig03",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.06, "no communication": 0.14},
        worst_at_scale_up="no communication",
    ),
    "fig04": FigureExpectation(
        "fig04",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.08, "no communication": 0.16},
        worst_at_scale_up="no communication",
    ),
    "fig05": FigureExpectation(
        "fig05",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.05, "no communication": 0.12},
        worst_at_scale_up="no communication",
    ),
    "fig06": FigureExpectation(
        "fig06",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.05, "no communication": 0.12},
        worst_at_scale_up="no communication",
    ),
    "fig07": FigureExpectation(
        "fig07", max_error_bounds={"global reduction": 0.04}
    ),
    "fig08": FigureExpectation(
        "fig08", max_error_bounds={"global reduction": 0.04}
    ),
    "fig09": FigureExpectation(
        "fig09", max_error_bounds={"global reduction": 0.02}
    ),
    "fig10": FigureExpectation(
        "fig10", max_error_bounds={"global reduction": 0.02}
    ),
    "fig11": FigureExpectation(
        "fig11", max_error_bounds={"cross-cluster": 0.12}
    ),
    "fig12": FigureExpectation(
        "fig12",
        max_error_bounds={"cross-cluster": 0.15},
        equal_nodes_hardest="cross-cluster",
    ),
    "fig13": FigureExpectation(
        "fig13",
        max_error_bounds={"cross-cluster": 0.10},
        equal_nodes_hardest="cross-cluster",
    ),
    "ext-apriori": FigureExpectation(
        "ext-apriori",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.08},
    ),
    "ext-neuralnet": FigureExpectation(
        "ext-neuralnet",
        models_ordered=True,
        max_error_bounds={"global reduction": 0.08},
    ),
}


def check_expectation(
    result: ExperimentResult, expectation: Optional[FigureExpectation] = None
) -> List[str]:
    """Return the list of violated claims (empty = reproduction holds).

    ``worst_at_scale_up`` and ``equal_nodes_hardest`` are skipped when the
    result was produced on a reduced grid that cannot express them.
    """
    if expectation is None:
        expectation = EXPECTATIONS.get(result.experiment_id)
        if expectation is None:
            raise ConfigurationError(
                f"no expectation recorded for '{result.experiment_id}'"
            )
    violations: List[str] = []

    # 0.1% absolute slack: qualitative claims must not hinge on noise-level
    # differences between near-exact predictions.
    if expectation.models_ordered and not model_ordering_holds(
        result, tolerance=1e-3
    ):
        violations.append("model mean-error ordering violated")

    for model, bound in expectation.max_error_bounds.items():
        if model not in result.models:
            violations.append(f"model '{model}' missing from result")
            continue
        worst = result.max_error(model)
        if worst > bound:
            violations.append(
                f"{model}: max error {worst:.2%} exceeds bound {bound:.2%}"
            )

    if expectation.worst_at_scale_up is not None:
        rows = result.rows_for_model(expectation.worst_at_scale_up)
        # Only meaningful on the full grid (which reaches 16 compute nodes).
        if rows and max(r.compute_nodes for r in rows) >= 16:
            worst_row = max(rows, key=lambda r: r.error)
            if worst_row.compute_nodes < 8:
                violations.append(
                    f"{expectation.worst_at_scale_up}: worst configuration "
                    f"{worst_row.label} is not a scale-up"
                )

    if expectation.equal_nodes_hardest is not None:
        rows = result.rows_for_model(expectation.equal_nodes_hardest)
        equal = [r.error for r in rows if r.compute_nodes == r.data_nodes]
        sixteen = [r.error for r in rows if r.compute_nodes == 16]
        if equal and sixteen and mean(equal) <= mean(sixteen):
            violations.append(
                f"{expectation.equal_nodes_hardest}: equal-node-count "
                "configurations are not the hardest"
            )

    return violations
