"""The flow layer of ``repro.lint``: REP104, dimensional consistency.

The prediction core's arithmetic is checked over a small unit lattice
(seconds, bytes, bytes/s, counts, ratios) across the handful of
``core`` model modules at once — see :mod:`repro.lint.flow.units`.
``repro lint --flow`` (and any directory run without ``--select``)
adds it to the scan.

Entry point: :func:`repro.lint.flow.analyze_paths`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.lint.flow.api": ("FlowPass", "analyze_paths"),
        "repro.lint.flow.units": ("FLOW_CODES", "FLOW_RULES"),
    },
)
