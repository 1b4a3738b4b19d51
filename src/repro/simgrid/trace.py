"""Execution-time breakdowns recorded by the middleware.

The paper's prediction framework consumes exactly one artefact from an
execution: the **breakdown of execution time into data retrieval, network
communication, and processing components** (``t_d``, ``t_n``, ``t_c``),
plus the reduction-object communication time ``T_ro``, the global-reduction
time ``T_g`` and the maximum reduction-object size.  :class:`TimeBreakdown`
is that artefact; :class:`PassRecord` keeps the per-pass detail for
multi-pass applications (k-means, EM) whose later passes read from the
compute-node cache instead of the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.simgrid.errors import ConfigurationError

__all__ = ["PassRecord", "TimeBreakdown", "left_sum"]


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from the int ``0``, as ``sum()`` does
    up to Python 3.11; from 3.12 ``sum()`` of floats is compensated, so
    simulated times add up here to replay bit for bit on any interpreter."""
    total: float = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True, slots=True)
class PassRecord:
    """Component times of a single pass over the data.

    ``t_ckpt`` is the reduction-object checkpoint write (and, on a
    restarted pass, restore) time charged by fault-tolerant executions;
    it is zero whenever no fault schedule is installed.  ``events`` holds
    the fault/recovery events observed during the pass, as flat dicts
    (kind, node, charged times) for reports and post-mortems.
    """

    index: int
    t_disk: float = 0.0
    t_network: float = 0.0
    t_local_compute: float = 0.0
    t_cache: float = 0.0
    t_ro: float = 0.0
    t_g: float = 0.0
    t_ckpt: float = 0.0
    events: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "t_disk",
            "t_network",
            "t_local_compute",
            "t_cache",
            "t_ro",
            "t_g",
            "t_ckpt",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def t_compute(self) -> float:
        """Processing component of this pass (cache reads included).

        Cache retrieval by a compute node scales with the number of compute
        nodes, not data nodes, so — like the paper's ``t_c`` — it belongs in
        the compute component rather than the data-retrieval component.
        """
        return self.t_local_compute + self.t_cache + self.t_ro + self.t_g

    @property
    def total(self) -> float:
        """Wall time of the pass (phases do not overlap)."""
        return self.t_disk + self.t_network + self.t_compute + self.t_ckpt


@dataclass
class TimeBreakdown:
    """Aggregate execution-time breakdown of one run.

    The three top-level components match the paper's
    ``T_exec = T_disk + T_network + T_compute``; ``t_ro`` and ``t_g`` are the
    serialized sub-components of ``t_compute`` that the refined predictors of
    Sections 3.3.1-3.3.2 model separately.
    """

    passes: List[PassRecord] = field(default_factory=list)
    max_reduction_object_bytes: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_pass(self, record: PassRecord) -> None:
        """Append one pass record."""
        self.passes.append(record)

    @property
    def num_passes(self) -> int:
        """Number of passes over the dataset."""
        return len(self.passes)

    @property
    def t_disk(self) -> float:
        """Repository data-retrieval component (``t_d``)."""
        return left_sum(p.t_disk for p in self.passes)

    @property
    def t_network(self) -> float:
        """Repository-to-compute communication component (``t_n``)."""
        return left_sum(p.t_network for p in self.passes)

    @property
    def t_compute(self) -> float:
        """Processing component (``t_c``), including ``T_ro`` and ``T_g``."""
        return left_sum(p.t_compute for p in self.passes)

    @property
    def t_ro(self) -> float:
        """Total reduction-object communication time (``T_ro``)."""
        return left_sum(p.t_ro for p in self.passes)

    @property
    def t_g(self) -> float:
        """Total global-reduction time (``T_g``)."""
        return left_sum(p.t_g for p in self.passes)

    @property
    def t_cache(self) -> float:
        """Total compute-node cache read/write time (inside ``t_c``)."""
        return left_sum(p.t_cache for p in self.passes)

    @property
    def t_ckpt(self) -> float:
        """Total reduction-object checkpoint time (fault tolerance)."""
        return left_sum(p.t_ckpt for p in self.passes)

    @property
    def fault_events(self) -> List[Dict[str, Any]]:
        """Every fault/recovery event across all passes, in pass order."""
        return [event for p in self.passes for event in p.events]

    @property
    def total(self) -> float:
        """Total execution time (``T_exec``)."""
        return self.t_disk + self.t_network + self.t_compute + self.t_ckpt
