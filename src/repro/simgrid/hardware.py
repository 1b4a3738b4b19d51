"""Hardware specifications and the operation-category compute cost model.

The prediction framework of the paper works on *component times* only; what
creates realistic component times here is a small first-principles cost
model:

- Compute time is charged from **operation vectors**: every application
  kernel reports how many floating-point, memory and branch operations it
  performed (counted from the real NumPy computation it just ran), and the
  CPU spec converts that vector into seconds through per-category rates.
  Two clusters with different per-category rates therefore speed up
  different applications by *different* factors — exactly the effect that
  makes the paper's averaged cross-cluster scaling factor (Section 3.4) an
  approximation (their measured compute factors ranged 0.233-0.370).
- Disk time is ``seek + bytes / stream_bw`` per chunk (see
  :mod:`repro.simgrid.disk` for backplane contention).
- Network time is ``latency + bytes / bw`` per message.

All values are in *model units* — a uniformly scaled-down replica of the
paper's 2007-era testbed (see the package docstring).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping

from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "OpCategory",
    "OpVector",
    "CPUSpec",
    "DiskSpec",
    "NICSpec",
    "NodeSpec",
    "ClusterSpec",
]


class OpCategory(str, enum.Enum):
    """Categories of abstract machine operations charged by kernels."""

    FLOP = "flop"
    MEM = "mem"
    BRANCH = "branch"


@dataclass(frozen=True, slots=True)
class OpVector:
    """A count of operations per category.

    Supports addition and scalar multiplication so kernels can accumulate
    counts chunk by chunk:

    >>> a = OpVector(flop=10, mem=4)
    >>> b = OpVector(flop=5, branch=2)
    >>> (a + b).flop
    15.0
    >>> (a * 2).mem
    8.0
    """

    flop: float = 0.0
    mem: float = 0.0
    branch: float = 0.0

    def __post_init__(self) -> None:
        for name in ("flop", "mem", "branch"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} count must be finite and >= 0")

    def __add__(self, other: "OpVector") -> "OpVector":
        return OpVector(
            self.flop + other.flop,
            self.mem + other.mem,
            self.branch + other.branch,
        )

    def __mul__(self, factor: float) -> "OpVector":
        return OpVector(self.flop * factor, self.mem * factor, self.branch * factor)

    __rmul__ = __mul__

    @property
    def total(self) -> float:
        """Total operation count across categories."""
        return self.flop + self.mem + self.branch

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (useful for traces and serialization)."""
        return {"flop": self.flop, "mem": self.mem, "branch": self.branch}

    @staticmethod
    def zero() -> "OpVector":
        """The additive identity."""
        return OpVector()

    @staticmethod
    def sum(vectors: Iterable["OpVector"]) -> "OpVector":
        """Sum an iterable of op vectors."""
        out = OpVector()
        for v in vectors:
            out = out + v
        return out


@dataclass(frozen=True)
class CPUSpec:
    """Per-category operation rates (operations per second, model units)."""

    name: str
    rates: Mapping[OpCategory, float]

    def __post_init__(self) -> None:
        for cat in OpCategory:
            rate = self.rates.get(cat)
            if rate is None or not 0 < rate < math.inf:
                raise ConfigurationError(
                    f"CPU '{self.name}' needs a positive, finite rate for "
                    f"{cat.value}"
                )

    @hot
    def compute_time(self, ops: OpVector) -> float:
        """Seconds to execute an operation vector on one core."""
        return self.seconds(ops.flop, ops.mem, ops.branch)

    def seconds(self, flop: Any, mem: Any, branch: Any) -> Any:
        """Seconds for three op counts, or element-wise for three columns."""
        rates = self.rates
        return flop / rates[OpCategory.FLOP] + mem / rates[OpCategory.MEM] + (
            branch / rates[OpCategory.BRANCH]
        )


@dataclass(frozen=True)
class DiskSpec:
    """A repository or local disk: per-chunk seek latency + streaming rate."""

    seek_s: float
    stream_bw: float  # bytes per second

    def __post_init__(self) -> None:
        if not 0 <= self.seek_s < math.inf:
            raise ConfigurationError("disk seek latency must be finite and >= 0")
        if not 0 < self.stream_bw < math.inf:
            raise ConfigurationError("disk streaming bandwidth must be finite and > 0")

    def read_time(self, nbytes: float, effective_bw: float | None = None) -> float:
        """Seconds to read one chunk of ``nbytes`` (optionally contended)."""
        bw = self.stream_bw if effective_bw is None else min(self.stream_bw, effective_bw)
        if nbytes < 0:
            raise ConfigurationError("cannot read a negative number of bytes")
        if bw <= 0:
            raise ConfigurationError("effective disk bandwidth must be > 0")
        return self.seek_s + nbytes / bw


@dataclass(frozen=True)
class NICSpec:
    """A network interface: per-message latency + bandwidth."""

    latency_s: float
    bw: float  # bytes per second

    def __post_init__(self) -> None:
        if not 0 <= self.latency_s < math.inf:
            raise ConfigurationError("NIC latency must be finite and >= 0")
        if not 0 < self.bw < math.inf:
            raise ConfigurationError("NIC bandwidth must be finite and > 0")

    def send_time(self, nbytes: float, effective_bw: float | None = None) -> float:
        """Seconds to push one message of ``nbytes`` through this NIC."""
        bw = self.bw if effective_bw is None else min(self.bw, effective_bw)
        if nbytes < 0:
            raise ConfigurationError("cannot send a negative number of bytes")
        return self.latency_s + nbytes / bw


@dataclass(frozen=True)
class NodeSpec:
    """One machine: CPU + local disk + NIC."""

    cpu: CPUSpec
    disk: DiskSpec
    nic: NICSpec


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster, plus the non-ideality knobs of the simulator.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"pentium-myrinet"``).
    node:
        Spec of every machine in the cluster (clusters are homogeneous,
        matching the paper's testbeds).
    num_nodes:
        Machines available.
    repository_backplane_bw:
        Aggregate bandwidth (bytes/s) of the storage backplane shared by all
        data nodes of a repository hosted on this cluster.  When ``n`` data
        nodes retrieve concurrently each sees
        ``min(disk.stream_bw, backplane/n)`` — the source of the sub-linear
        retrieval scaling the paper observes at 8 data nodes.
    node_startup_s:
        Fixed per-node phase start-up cost (process launch, handshakes)
        charged once per retrieval phase on each data node.
    compute_pass_startup_s:
        Fixed per-compute-node cost charged at the start of every pass
        (buffer setup, synchronization).  Because it does not scale with
        dataset size, it makes compute time slightly *affine* in ``s`` —
        the predictor's strict proportionality assumption then
        overestimates small-``c`` targets when predicting a larger dataset
        from a smaller profile, which is the error shape of Figures 7-8 of
        the paper (worst at equal node counts, recovering as compute nodes
        scale up).
    chunk_dispatch_overhead_s:
        Per-chunk bookkeeping at a compute node (buffer management, API
        upcall) charged in the compute phase.
    chunk_receive_overhead_s:
        Per-chunk receive/demultiplex cost at a compute node.  It sits on
        the critical path only to the extent the incoming stream saturates
        the node, i.e. scaled by ``n / c`` (data nodes per compute node);
        with more compute nodes than data nodes, arrivals have gaps that
        hide this cost.  This unmodelled term is what makes configurations
        with *equal numbers of data and compute nodes* the hardest to
        predict — the error shape in Figures 7-10 of the paper.
    intra_latency_s / intra_bw:
        Latency and bandwidth of the intra-cluster interconnect used to
        gather reduction objects (Section 3.3.1's ``l`` and ``1/w``).
    gather_deserialize_s:
        Per-reduction-object handling cost (deserialization, API upcall)
        paid by the master during the global reduction for *every* object
        it folds in — its own included.  Because the cost is symmetric in
        the object count, ``T_g`` on one node is exactly the per-object
        cost, which is what makes the paper's linear-constant scaling of
        ``T_g`` with compute nodes hold for the accumulator applications.
    cache_disk:
        Disk model for the compute-node chunk cache.  Local cached reads
        are mostly served from the OS buffer cache, so this is much faster
        than the repository disks; defaults to the node disk when unset.
    smp_width:
        Processors per machine.  FREERIDE-G executes "on distributed
        memory and shared memory systems, as well as on cluster of SMPs,
        starting from a common high-level interface" (Section 1); a run
        may use up to this many processes per compute node.
    smp_memory_contention:
        Per-extra-process slowdown of the shared memory bus: with ``p``
        processes a node's effective per-process rate is divided by
        ``1 + contention * (p - 1)``.
    """

    name: str
    node: NodeSpec
    num_nodes: int
    repository_backplane_bw: float
    node_startup_s: float = 0.0
    compute_pass_startup_s: float = 0.0
    chunk_dispatch_overhead_s: float = 0.0
    chunk_receive_overhead_s: float = 0.0
    intra_latency_s: float = 0.0
    intra_bw: float = 1.0e12
    gather_deserialize_s: float = 0.0
    cache_disk: DiskSpec | None = None
    smp_width: int = 1
    smp_memory_contention: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("a cluster needs at least one node")
        if self.repository_backplane_bw <= 0:
            raise ConfigurationError("backplane bandwidth must be > 0")
        if self.intra_bw <= 0:
            raise ConfigurationError("intra-cluster bandwidth must be > 0")
        for attr in (
            "node_startup_s",
            "compute_pass_startup_s",
            "chunk_dispatch_overhead_s",
            "chunk_receive_overhead_s",
            "intra_latency_s",
            "gather_deserialize_s",
        ):
            if getattr(self, attr) < 0:
                raise ConfigurationError(f"{attr} must be >= 0")

        if self.smp_width < 1:
            raise ConfigurationError("smp_width must be >= 1")
        if self.smp_memory_contention < 0:
            raise ConfigurationError("smp_memory_contention must be >= 0")

    @property
    def effective_cache_disk(self) -> DiskSpec:
        """The disk model used for compute-node chunk caching."""
        return self.cache_disk if self.cache_disk is not None else self.node.disk

    def smp_slowdown(self, processes: int) -> float:
        """Memory-bus contention factor for ``processes`` per node."""
        if not 1 <= processes <= self.smp_width:
            raise ConfigurationError(
                f"cluster '{self.name}' supports 1..{self.smp_width} "
                f"processes per node, {processes} requested"
            )
        return 1.0 + self.smp_memory_contention * (processes - 1)

    def require_nodes(self, count: int) -> None:
        """Validate that ``count`` nodes can be allocated from this cluster."""
        if count <= 0:
            raise ConfigurationError("node count must be positive")
        if count > self.num_nodes:
            raise ConfigurationError(
                f"cluster '{self.name}' has {self.num_nodes} nodes, "
                f"{count} requested"
            )

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """A copy of this spec with a different machine count."""
        return replace(self, num_nodes=num_nodes)

    def effective_disk_bw(self, active_data_nodes: int) -> float:
        """Per-node disk bandwidth when ``n`` data nodes retrieve at once."""
        if active_data_nodes <= 0:
            raise ConfigurationError("active data node count must be positive")
        share = self.repository_backplane_bw / active_data_nodes
        return min(self.node.disk.stream_bw, share)

    def gather_message_time(self, nbytes: float) -> float:
        """Time for one reduction-object message on the intra-cluster link."""
        if nbytes < 0:
            raise ConfigurationError("cannot send a negative number of bytes")
        return self.intra_latency_s + nbytes / self.intra_bw
