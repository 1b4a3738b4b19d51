"""FREERIDE-G middleware reimplementation.

FREERIDE-G (FRamework for Rapid Implementation of Datamining Engines in
Grid) supports data mining and scientific data processing applications whose
processing structure is a **generalized reduction**: data chunks are
retrieved from repository (data-server) nodes, shipped to compute nodes,
locally reduced into a replicated *reduction object* using associative and
commutative updates, after which reduction objects are communicated and a
serialized *global reduction* combines them.

This package reimplements that middleware on top of the
:mod:`repro.simgrid` substrate:

- :mod:`repro.middleware.api`            — the generalized-reduction
  programming interface applications implement.
- :mod:`repro.middleware.reduction`      — reduction-object helpers.
- :mod:`repro.middleware.dataset`        — chunked dataset abstraction.
- :mod:`repro.middleware.chunks`         — chunk-to-node assignment (data
  distribution role of the data server).
- :mod:`repro.middleware.instrument`     — operation counters used to charge
  compute time from the real NumPy kernels.
- :mod:`repro.middleware.data_server`    — data retrieval / distribution /
  communication roles.
- :mod:`repro.middleware.compute_server` — communication / computation /
  caching roles.
- :mod:`repro.middleware.caching`        — local-disk cache for multi-pass
  applications.
- :mod:`repro.middleware.scheduler`      — run configurations (the paper's
  N data nodes, M compute nodes, M >= N).
- :mod:`repro.middleware.kernels`        — per-chunk kernel traces: the
  NumPy kernels run once and are priced on any configuration.
- :mod:`repro.middleware.runtime`        — the execution engine producing a
  result plus a :class:`repro.simgrid.TimeBreakdown`.
- :mod:`repro.middleware.replica`        — the replica catalog used by
  resource selection.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.middleware.api": ("GeneralizedReduction",),
        "repro.middleware.caching": ("CacheModel",),
        "repro.middleware.chunks": ("ChunkAssignment", "assign_chunks"),
        "repro.middleware.compute_server": ("ComputeServer",),
        "repro.middleware.data_server": ("DataServer",),
        "repro.middleware.dataset": ("ArrayDataset", "Dataset"),
        "repro.middleware.instrument": ("OpCounter",),
        "repro.middleware.kernels": ("KernelTrace",),
        "repro.middleware.replica": ("Replica", "ReplicaCatalog"),
        "repro.middleware.runtime": ("FreerideGRuntime", "RunResult"),
        "repro.middleware.scheduler": ("GatherTopology", "RunConfig"),
    },
)
