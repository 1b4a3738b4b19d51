"""The performance-contract layer: REP301-REP305 (DESIGN.md §18).

Fourth lint layer.  REP00x checks one AST node, the flow layer follows
values, the effect layer follows effects; this layer follows *cost*:
per-function summaries of loop structure, allocation sites, linear
scans, and loop-invariant calls, closed over the SCC-condensed call
graph from the declared hot set (``repro.hotpath``), and
cross-validated against a measured call profile (``repro profile``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.lint.perf.api": ("PerfPass", "analyze_perf"),
        "repro.lint.perf.profile": (
            "DEFAULT_PROFILE_NAME",
            "build_profile_document",
            "cross_validate",
            "load_profile",
            "measured_hot",
        ),
        "repro.lint.perf.ruledefs": ("PERF_CODES", "PERF_RULES"),
    },
)
