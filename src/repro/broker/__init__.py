"""Prediction-guided grid brokering over simulated time.

The broker subsystem accepts a stream of FREERIDE-G jobs and places
each on a (replica site, compute configuration) pair chosen by a
pluggable policy over the prediction framework, correcting the model
online from observed runs.  See :mod:`repro.broker.engine` for the
event-loop semantics and DESIGN.md section 12 for the design rationale.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.broker.calibration": ("CorrectionFactor", "OnlineCalibrator"),
        "repro.broker.engine": ("ActualRun", "GridBroker"),
        "repro.broker.events": (
            "Event",
            "EventKind",
            "EventQueue",
            "GridLedger",
            "NodeWindow",
            "OutageRecord",
            "SitePool",
        ),
        "repro.broker.jobs": (
            "BrokerJob",
            "BrokerWorkloadDoc",
            "load_workload_document",
            "parse_workload_document",
            "sorted_jobs",
        ),
        "repro.broker.policies": (
            "POLICY_NAMES",
            "DeadlineAwarePolicy",
            "MinCompletionPolicy",
            "MinCostPolicy",
            "PlacementOption",
            "PlacementPolicy",
            "Rejection",
            "RoundRobinPolicy",
            "make_policy",
        ),
        "repro.broker.recovery": (
            "RECOVERY_NAMES",
            "GiveUp",
            "Incident",
            "MigratePolicy",
            "RecoveryPolicy",
            "Requeue",
            "ResubmitPolicy",
            "make_recovery",
        ),
        "repro.broker.report": (
            "BrokerPlacement",
            "BrokerPreemption",
            "BrokerRejection",
            "BrokerReport",
            "GridFaultEvent",
            "PolicyRun",
            "TerminalFailure",
        ),
    },
)
