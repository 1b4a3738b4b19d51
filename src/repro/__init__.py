"""Reproduction of 'A Performance Prediction Framework for Grid-Based
Data Mining Applications' (Glimcher & Agrawal, IPDPS 2007).

Subpackages: :mod:`repro.simgrid` (simulation substrate),
:mod:`repro.middleware` (FREERIDE-G), :mod:`repro.apps` (workload
kernels), :mod:`repro.core` (the prediction framework),
:mod:`repro.faults` (fault injection and tolerance),
:mod:`repro.analysis` and :mod:`repro.workloads` (evaluation harness).

The root exception hierarchy is exported here for uniform catching.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.errors": ("FaultError", "RecoveryExhaustedError", "ReproError"),
    },
)
