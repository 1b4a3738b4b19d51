"""Whole-program (interprocedural) analysis layer of ``repro.lint``.

The intraprocedural rules (REP001-REP009) see one file at a time and
match surface syntax.  This package extracts per-function dataflow
summaries over canonical (import-resolved) names and propagates taint,
sink-reachability, and raise sets bottom-up over the SCC-condensed
project call graph — producing the REP101-REP104 rule family:

- REP101 — wall-clock/environment taint reaching a durable sink
- REP102 — unseeded-RNG taint reaching a durable sink
- REP103 — public middleware/broker/campaign API leaking a builtin
  exception raised in a callee
- REP104 — dimensional inconsistency in the prediction-model core

Entry point: :func:`repro.lint.flow.analyze_paths`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.lint.flow.api": ("FlowPass", "analyze_paths"),
        "repro.lint.flow.ruledefs": ("FLOW_CODES", "FLOW_RULES"),
    },
)
