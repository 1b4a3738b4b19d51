"""Recovery policies: what the broker does with a preempted job.

When a grid fault (site outage, node-pool shrink, transient job
failure) tears a running placement down, the broker asks its recovery
policy for a :class:`RecoveryDecision`.  Both built-in policies share
one bounded :class:`~repro.faults.retry.RetryPolicy` budget
(:data:`~repro.faults.retry.DEFAULT_BROKER_RETRY_POLICY` unless the run
names another) — a job whose attempts are exhausted is *terminally
failed* and classified as such in the report, and a torn-down attempt
re-enters the wait queue after the backoff of its failure count — and
differ in what survives the preemption:

- :class:`ResubmitPolicy` (``resubmit``) — resubmit-elsewhere: the job
  re-enters the wait queue after the backoff delay and re-runs resource
  selection from scratch against the surviving sites.  All work of the
  torn-down attempt is wasted.
- :class:`MigratePolicy` (``migrate``) — checkpoint-aware migration:
  the passes completed before the preemption survive as reduction-object
  checkpoints, so the next attempt re-runs only the unfinished passes
  and is charged a recovery overhead :math:`T_{recover}` (checkpoint
  restore + data re-staging) estimated through the
  :class:`~repro.core.degraded.DegradedModePredictor`.

Policies are pure decision functions over an :class:`Incident`; the
engine owns all ledger and queue mutation (REP008).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Union

from repro.broker.jobs import BrokerJob
from repro.faults.retry import DEFAULT_BROKER_RETRY_POLICY, RetryPolicy
from repro.simgrid.errors import ConfigurationError

__all__ = [
    "Incident",
    "Requeue",
    "GiveUp",
    "RecoveryDecision",
    "RecoveryPolicy",
    "ResubmitPolicy",
    "MigratePolicy",
    "RECOVERY_NAMES",
    "make_recovery",
]


@dataclass(frozen=True, slots=True)
class Incident:
    """One torn-down execution attempt, as the recovery policy sees it.

    ``checkpoint_fraction`` is the share of the job's passes whose
    reduction objects were checkpointed before the preemption (quantized
    to pass boundaries by the engine); ``done_before`` is the share
    already carried into the attempt by earlier migrations.
    """

    job: BrokerJob
    cause: str
    time: float
    failed_attempts: int
    done_before: float = 0.0
    checkpoint_fraction: float = 0.0


@dataclass(frozen=True, slots=True)
class Requeue:
    """Re-place the job: eligible again at ``at`` with ``progress`` kept.

    ``charge_recovery`` asks the engine to add the candidate-specific
    :math:`T_{recover}` estimate to the next attempt's execution time.
    """

    at: float
    progress: float = 0.0
    charge_recovery: bool = False


@dataclass(frozen=True, slots=True)
class GiveUp:
    """Stop retrying: the job is terminally failed with this code."""

    code: str
    reason: str


RecoveryDecision = Union[Requeue, GiveUp]


class RecoveryPolicy(abc.ABC):
    """Common interface; instances are stateless across jobs."""

    #: CLI/report name.
    name: str = "recovery"

    def __init__(
        self, retry: RetryPolicy = DEFAULT_BROKER_RETRY_POLICY
    ) -> None:
        self.retry = retry

    def plan(self, incident: Incident) -> RecoveryDecision:
        """Decide what happens to the job of one incident."""
        if incident.failed_attempts >= self.retry.max_attempts:
            return GiveUp(
                code="retry-budget-exhausted",
                reason=(
                    f"{incident.failed_attempts} attempt(s) torn down "
                    f"(last: {incident.cause}); the "
                    f"{self.retry.max_attempts}-attempt budget is spent"
                ),
            )
        delay = self.retry.backoff_s(incident.failed_attempts)
        return self._requeue(incident, incident.time + delay)

    @abc.abstractmethod
    def _requeue(self, incident: Incident, at: float) -> Requeue:
        """Build the policy-specific requeue decision."""


class ResubmitPolicy(RecoveryPolicy):
    """Resubmit-elsewhere: fresh start on whatever sites survive."""

    name = "resubmit"

    def _requeue(self, incident: Incident, at: float) -> Requeue:
        return Requeue(at=at, progress=0.0, charge_recovery=False)


class MigratePolicy(RecoveryPolicy):
    """Checkpoint-aware migration: completed passes survive, T_recover
    is charged on the resumed attempt."""

    name = "migrate"

    def _requeue(self, incident: Incident, at: float) -> Requeue:
        progress = max(incident.checkpoint_fraction, 0.0)
        return Requeue(at=at, progress=progress, charge_recovery=progress > 0)


#: Names accepted by the CLI, in canonical order.
RECOVERY_NAMES = ("resubmit", "migrate")


def make_recovery(
    name: str, retry: Optional[RetryPolicy] = None
) -> RecoveryPolicy:
    """A fresh recovery policy instance by CLI name."""
    retry = retry if retry is not None else DEFAULT_BROKER_RETRY_POLICY
    if name == "resubmit":
        return ResubmitPolicy(retry)
    if name == "migrate":
        return MigratePolicy(retry)
    raise ConfigurationError(
        f"unknown recovery policy '{name}'; known: {', '.join(RECOVERY_NAMES)}"
    )
