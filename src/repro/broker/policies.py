"""Placement policies of the grid broker.

Every policy sees the same information at a decision point: the job, the
current simulated time, the selection candidates — the (replica,
compute site, allocation) pairs that are *feasible right now* given free
node capacity — and one calibrated predicted total per candidate.  Since
the job has already waited in the queue until ``now``, the predicted
completion of a candidate is ``now + total`` — queue wait plus
:math:`\\hat T_{exec}`, the quantity the paper's model makes cheap to
evaluate.

- :class:`MinCompletionPolicy` — earliest predicted completion.
- :class:`MinCostPolicy` — fewest predicted node-hours (machines x time).
- :class:`DeadlineAwarePolicy` — cheapest option that still meets the
  job's deadline; *admission control* rejects jobs that cannot meet it
  (at arrival when even an idle grid is too slow, at placement when the
  realized queue wait has eaten the slack).
- :class:`RoundRobinPolicy` — the prediction-free baseline: rotate over
  compute sites and take the first configured allocation there.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.broker.jobs import BrokerJob
from repro.core.models import PredictedBreakdown
from repro.core.selection import SelectionCandidate
from repro.hotpath import hot
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "PlacementOption",
    "Rejection",
    "PlacementPolicy",
    "MinCompletionPolicy",
    "MinCostPolicy",
    "DeadlineAwarePolicy",
    "RoundRobinPolicy",
    "POLICY_NAMES",
    "attempt_total",
    "make_policy",
]


@hot
def attempt_total(
    calibrated: PredictedBreakdown,
    remaining: float,
    charge: float,
    wan: float,
) -> float:
    """Calibrated predicted execution time of one attempt.

    For a resumed job only the ``remaining`` fraction of the work is
    predicted, plus the ``charge`` seconds of :math:`T_{recover}` paid
    first; an active WAN degradation stretches the network component by
    ``wan``.  At the fault-free identity ``(1, 0, 1)`` this is exactly
    ``calibrated.total``.
    """
    # remaining <= 1, charge >= 0 and wan >= 1 by construction, so these
    # inequalities test for the exact fault-free identity values without
    # a float-equality compare.
    if remaining >= 1.0 and charge <= 0.0 and wan <= 1.0:
        return calibrated.total
    stretched = calibrated.total + calibrated.t_network * (wan - 1.0)
    return remaining * stretched + charge


@dataclass(frozen=True, slots=True)
class PlacementOption:
    """One chosen placement with raw and calibrated predictions.

    Under a grid fault schedule the option additionally carries the
    resume state of the job (``remaining_fraction`` of the work left
    after checkpoint-aware migration, plus the ``resume_charge``
    :math:`T_{recover}` seconds the candidate would pay to restore) and
    the ``wan_factor`` currently stretching the candidate's
    replica-to-compute network path.  All three default to the
    fault-free identity, so fault-free predictions are unchanged.
    """

    candidate: SelectionCandidate
    raw: PredictedBreakdown
    calibrated: PredictedBreakdown
    remaining_fraction: float = 1.0
    resume_charge: float = 0.0
    wan_factor: float = 1.0

    #: Calibrated predicted execution time of this attempt
    #: (:func:`attempt_total`).  Computed once at construction: the
    #: class is slotted, so ``functools.cached_property`` has no
    #: instance dict to cache into.
    predicted_total: float = field(init=False, repr=False, compare=False)

    @hot
    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "predicted_total",
            attempt_total(
                self.calibrated,
                self.remaining_fraction,
                self.resume_charge,
                self.wan_factor,
            ),
        )


@dataclass(frozen=True)
class Rejection:
    """A policy's refusal to place a job, with a machine-usable code."""

    code: str
    reason: str


class PlacementPolicy(abc.ABC):
    """Common interface; instances may be stateful — one per broker run."""

    #: CLI/report name.
    name: str = "policy"

    #: Whether :meth:`choose_index` reads ``totals``.  A policy that
    #: never reads predictions (round-robin) sets this to ``False`` and
    #: the broker skips the scoring entirely.
    needs_totals: bool = True

    def wants_admission_totals(self, job: BrokerJob) -> bool:
        """Whether :meth:`admit` will actually read ``totals`` for ``job``.

        Scoring every full-capacity candidate costs one prediction per
        candidate, so at six-figure job counts the broker skips it for
        policies that admit unconditionally.  The default matches the
        default :meth:`admit`; a policy that overrides :meth:`admit`
        must override this too, or its check never runs.
        """
        return False

    def admit(
        self,
        job: BrokerJob,
        totals: Sequence[float],
        now: float,
    ) -> Optional[Rejection]:
        """Arrival-time admission check against an *idle* grid.

        ``totals`` are the calibrated predicted totals of the job's
        full-capacity candidates (ignoring current load).  Returning a
        :class:`Rejection` drops the job before it ever queues; the
        default admits everything.
        """
        return None

    @abc.abstractmethod
    def choose_index(
        self,
        job: BrokerJob,
        candidates: Sequence[SelectionCandidate],
        totals: Sequence[float],
        now: float,
    ) -> int | Rejection:
        """The policy's decision: the winning index, or a refusal.

        ``candidates`` are the currently feasible selection candidates
        (never empty, in enumeration order) and ``totals[i]`` is the
        calibrated predicted total of an attempt on ``candidates[i]``
        (empty when :attr:`needs_totals` is false).  The broker builds a
        :class:`PlacementOption` for the winner alone.
        """


class MinCompletionPolicy(PlacementPolicy):
    """Earliest predicted completion (= min calibrated T̂_exec now)."""

    name = "min-completion"

    def choose_index(self, job, candidates, totals, now):
        return min(
            range(len(candidates)),
            key=lambda i: (totals[i], candidates[i].sort_key),
        )


class MinCostPolicy(PlacementPolicy):
    """Fewest predicted node-hours; completion time breaks ties."""

    name = "min-cost"

    def choose_index(self, job, candidates, totals, now):
        def key(i: int) -> tuple:
            cand = candidates[i]
            # Predicted node-hours: machines reserved x predicted time.
            return (
                (cand.data_nodes + cand.compute_nodes) * totals[i],
                totals[i],
                cand.sort_key,
            )

        return min(range(len(candidates)), key=key)


class DeadlineAwarePolicy(PlacementPolicy):
    """Cheapest option that meets the deadline; rejects hopeless jobs.

    Jobs without a deadline fall back to min-completion behaviour.
    """

    name = "deadline-aware"

    def wants_admission_totals(self, job):
        return job.deadline is not None

    def admit(self, job, totals, now):
        if job.deadline is None:
            return None
        best = min(now + t for t in totals)
        if best > job.deadline:
            return Rejection(
                code="deadline-unmeetable",
                reason=(
                    f"predicted completion {best:.4f}s exceeds deadline "
                    f"{job.deadline:.4f}s even on an idle grid"
                ),
            )
        return None

    def choose_index(self, job, candidates, totals, now):
        def cost_key(i: int) -> tuple:
            cand = candidates[i]
            return (
                (cand.data_nodes + cand.compute_nodes) * totals[i],
                totals[i],
                cand.sort_key,
            )

        if job.deadline is None:
            return min(
                range(len(candidates)),
                key=lambda i: (totals[i], candidates[i].sort_key),
            )
        meeting = [
            i
            for i in range(len(candidates))
            if now + totals[i] <= job.deadline
        ]
        if not meeting:
            best = min(now + t for t in totals)
            return Rejection(
                code="deadline-miss-predicted",
                reason=(
                    f"after waiting until t={now:.4f}s the best predicted "
                    f"completion {best:.4f}s exceeds deadline "
                    f"{job.deadline:.4f}s"
                ),
            )
        return min(meeting, key=cost_key)


class RoundRobinPolicy(PlacementPolicy):
    """Prediction-free baseline: rotate compute sites, fixed allocation.

    The rotation pointer advances over the site list in registration
    order; at each decision the policy takes the first rotation site
    with a feasible option and, there, the first option in the broker's
    enumeration order (smallest allocation at the alphabetically first
    replica) — no predicted time is consulted.
    """

    name = "round-robin"
    needs_totals = False

    def __init__(self, compute_sites: Sequence[str]) -> None:
        if not compute_sites:
            raise ConfigurationError("round-robin needs compute sites")
        self._sites = list(compute_sites)
        self._next = 0

    def choose_index(self, job, candidates, totals, now):
        for offset in range(len(self._sites)):
            site = self._sites[(self._next + offset) % len(self._sites)]
            here = [
                i
                for i, cand in enumerate(candidates)
                if cand.compute_site == site
            ]
            if here:
                self._next = (self._next + offset + 1) % len(self._sites)
                return min(
                    here,
                    key=lambda i: (
                        candidates[i].data_nodes
                        + candidates[i].compute_nodes,
                        candidates[i].sort_key,
                    ),
                )
        # Candidates always name known compute sites, so this is
        # unreachable unless the policy was built for a different topology.
        raise ConfigurationError(
            "round-robin saw options for sites outside its rotation"
        )


#: Names accepted by the CLI, in canonical order.
POLICY_NAMES = (
    "min-completion",
    "min-cost",
    "deadline-aware",
    "round-robin",
)


def make_policy(name: str, compute_sites: Sequence[str]) -> PlacementPolicy:
    """A fresh policy instance (policies may carry per-run state)."""
    if name == "min-completion":
        return MinCompletionPolicy()
    if name == "min-cost":
        return MinCostPolicy()
    if name == "deadline-aware":
        return DeadlineAwarePolicy()
    if name == "round-robin":
        return RoundRobinPolicy(compute_sites)
    raise ConfigurationError(
        f"unknown broker policy '{name}'; known: {', '.join(POLICY_NAMES)}"
    )
