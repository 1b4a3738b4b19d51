"""The performance-contract layer: REP301-REP304 (DESIGN.md §18).

REP00x checks one AST node, the flow layer the prediction core's
units, the effect layer follows effects; this layer follows *cost*:
per-function summaries of loop structure, allocation sites, linear
scans, and loop-invariant calls, closed over the SCC-condensed call
graph from the declared hot set (``repro.hotpath``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.lint.perf.api": ("PerfPass", "analyze_perf"),
        "repro.lint.perf.ruledefs": ("PERF_CODES", "PERF_RULES"),
    },
)
