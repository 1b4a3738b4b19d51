"""The performance-contract layer: REP301-REP305 (DESIGN.md §18).

Fourth lint layer.  REP00x checks one AST node, the flow layer follows
values, the effect layer follows effects; this layer follows *cost*:
per-function summaries of loop structure, allocation sites, linear
scans, and loop-invariant calls, closed over the SCC-condensed call
graph from the declared hot set (``repro.hotpath``), and
cross-validated against a measured call profile (``repro profile``).
"""

from repro.lint.perf.api import PerfPass, analyze_perf
from repro.lint.perf.profile import (
    DEFAULT_PROFILE_NAME,
    build_profile_document,
    cross_validate,
    load_profile,
    measured_hot,
)
from repro.lint.perf.ruledefs import PERF_CODES, PERF_RULES

__all__ = [
    "analyze_perf",
    "PerfPass",
    "DEFAULT_PROFILE_NAME",
    "PERF_RULES",
    "PERF_CODES",
    "build_profile_document",
    "cross_validate",
    "load_profile",
    "measured_hot",
]
