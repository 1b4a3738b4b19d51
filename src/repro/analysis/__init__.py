"""Reporting utilities for the reproduced experiments.

- :mod:`repro.analysis.report` — figure-style ASCII error tables and the
  EXPERIMENTS.md generator.
- :mod:`repro.analysis.stats`  — summary statistics and shape checks
  (model ordering, error trends) over experiment results.
- :mod:`repro.analysis.broker` — policy comparison tables and the
  calibration error trend for broker reports.
- :mod:`repro.analysis.service` — prediction-service metrics rollups
  and service chaos campaign tables.
- :mod:`repro.analysis.trace` — trace-workload composition tables.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.analysis.ascii": ("error_bar_chart", "horizontal_bar"),
        "repro.analysis.broker": (
            "format_broker",
            "format_error_trend",
            "format_policy_run",
            "format_resilience",
        ),
        "repro.analysis.breakdown": (
            "ComponentShares",
            "format_shares",
            "shares_of",
            "sweep_shares",
        ),
        "repro.analysis.expectations": (
            "EXPECTATIONS",
            "FigureExpectation",
            "check_expectation",
        ),
        "repro.analysis.report": (
            "format_campaign",
            "format_experiment",
            "format_fault_events",
            "format_summary",
        ),
        "repro.analysis.results_io": (
            "RowDelta",
            "compare_results",
            "load_result",
            "result_from_dict",
            "result_to_dict",
            "save_result",
        ),
        "repro.analysis.service": (
            "format_service_chaos",
            "format_service_metrics",
        ),
        "repro.analysis.stats": (
            "error_summary",
            "mean",
            "model_ordering_holds",
            "worst_configuration",
        ),
        "repro.analysis.trace": ("format_trace",),
    },
)
