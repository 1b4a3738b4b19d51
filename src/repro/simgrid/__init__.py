"""Discrete-event grid simulation substrate.

This package replaces the physical testbed used in the paper (two clusters —
700 MHz Pentium machines on Myrinet and 2.4 GHz Opteron 250 machines on
InfiniBand — plus a data repository) with a deterministic, laptop-scale
simulator.  Everything the FREERIDE-G middleware needs from hardware is
modelled here:

- :mod:`repro.simgrid.engine`    — virtual clock and event queue.
- :mod:`repro.simgrid.hardware`  — CPU / disk / NIC / node / cluster specs and
  the operation-category cost model used to charge compute time.
- :mod:`repro.simgrid.disk`      — disk service times with repository
  backplane contention (the source of sub-linear retrieval scaling).
- :mod:`repro.simgrid.network`   — link transfer times, max-min fair
  bandwidth sharing, and the experimentally-fitted (w, l) communication cost
  model of Section 3.3.1 of the paper.
- :mod:`repro.simgrid.topology`  — the grid topology connecting data
  repositories and compute clusters, with min-hop path queries used for
  replica selection.
- :mod:`repro.simgrid.trace`     — execution-time breakdowns
  (T_disk / T_network / T_compute / T_ro / T_g) recorded by the middleware.

All quantities are expressed in *model units*: the simulated testbed is a
uniformly scaled-down replica of the paper's (sizes, latencies and service
times all divided by the same constant), which leaves every ratio — and hence
every prediction error — unchanged.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.simgrid.engine": ("Event", "Simulator"),
        "repro.simgrid.errors": (
            "ConfigurationError",
            "SimulationError",
            "TopologyError",
        ),
        "repro.simgrid.hardware": (
            "ClusterSpec",
            "CPUSpec",
            "DiskSpec",
            "NICSpec",
            "NodeSpec",
            "OpCategory",
            "OpVector",
        ),
        "repro.simgrid.disk": ("DiskModel", "RepositoryDiskSystem"),
        "repro.simgrid.network": (
            "CommCostModel",
            "LinkModel",
            "fit_linear_cost",
        ),
        "repro.simgrid.topology": ("GridTopology", "SiteKind"),
        "repro.simgrid.trace": ("PassRecord", "TimeBreakdown"),
    },
)
