"""Fault injection and fault tolerance for the FREERIDE-G runtime.

The paper's premise is resource selection on *shared, unreliable* grid
resources; this package supplies the unreliable part.  It provides:

- :mod:`repro.faults.specs`    — seeded, schedulable *execution-scoped*
  fault specs (:class:`DataNodeCrash`, :class:`ComputeNodeCrash`,
  :class:`LinkDegradation`, :class:`SlowNode`, transient
  :class:`ChunkReadError`) collected into a :class:`FaultSchedule`.
- :mod:`repro.faults.grid`     — *grid-scoped* fault specs the broker
  consumes (:class:`SiteOutage`, :class:`NodePoolShrink`,
  :class:`WanDegradation`, :class:`TransientJobFailure`) collected into
  a :class:`GridFaultSchedule`.
- :mod:`repro.faults.retry`    — the :class:`RetryPolicy` (attempt
  budget, capped exponential backoff, per-chunk timeout) and its three
  defaults: per chunk read, per broker job
  (:data:`DEFAULT_BROKER_RETRY_POLICY`) and per campaign entry.
- :mod:`repro.faults.injector` — the deterministic :class:`FaultInjector`
  and its standby-replica failover.
- :mod:`repro.faults.scenario` — JSON scenario files for the
  ``repro run --faults`` and ``repro broker --faults`` CLI flags, with
  scope-aware kind validation.
- :mod:`repro.faults.chaos`    — seeded randomized grid-fault timelines
  and the invariant checker behind the chaos campaigns (imported
  directly, not re-exported here, because it drives the broker).
- :mod:`repro.faults.verify`   — bitwise faulted-vs-fault-free result
  comparison.

The execution-level recovery semantics live in
:class:`repro.middleware.runtime.FreerideGRuntime`; grid-level recovery
lives in :mod:`repro.broker.recovery`; the expected-cost model is
:class:`repro.core.degraded.DegradedModePredictor`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.errors": ("FaultError", "RecoveryExhaustedError"),
        "repro.faults.grid": (
            "GridFaultSchedule",
            "GridFaultSpec",
            "NodePoolShrink",
            "SiteOutage",
            "TransientJobFailure",
            "WanDegradation",
        ),
        "repro.faults.injector": ("FaultInjector",),
        "repro.faults.retry": (
            "DEFAULT_BROKER_RETRY_POLICY",
            "DEFAULT_RETRY_POLICY",
            "WATCHDOG_RETRY_POLICY",
            "RetryPolicy",
        ),
        "repro.faults.scenario": (
            "EXECUTION_FAULT_KINDS",
            "GRID_FAULT_KINDS",
            "GridFaultScenario",
            "grid_scenario_from_dict",
            "grid_schedule_from_dict",
            "injector_from_dict",
            "load_grid_scenario",
            "load_scenario",
            "schedule_from_dict",
        ),
        "repro.faults.specs": (
            "ChunkReadError",
            "ComputeNodeCrash",
            "DataNodeCrash",
            "FaultSchedule",
            "FaultSpec",
            "LinkDegradation",
            "SlowNode",
        ),
        "repro.faults.verify": ("results_equal",),
    },
)
