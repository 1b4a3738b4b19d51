"""Campaign outcomes: per-entry classification and process exit codes.

Every entry of a finished (or interrupted) campaign is classified:

- ``completed`` — ran to completion on the first attempt this run;
- ``retried``   — completed, but only after at least one watchdog
  timeout and retry;
- ``resumed``   — settled in a *previous* run and restored from the
  journal without re-running;
- ``timed-out`` — exceeded its deadline on every attempt the retry
  policy allowed; the campaign moved on;
- ``skipped``   — never reached because the operator interrupted the
  campaign (it will run on ``--resume``).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CampaignError
from repro.workloads.experiments import ExperimentResult

from repro.campaign.manifest import CampaignEntry

__all__ = [
    "CampaignOutcome",
    "CampaignReport",
    "ENTRY_STATUSES",
    "EXIT_OK",
    "EXIT_PROBLEMS",
    "EXIT_INTERRUPTED",
]

#: Exit code when every entry completed and every claim held.
EXIT_OK = 0
#: Exit code when the campaign finished but has timed-out entries or
#: violated claims.
EXIT_PROBLEMS = 1
#: Exit code when the operator interrupted the campaign (SIGINT/SIGTERM)
#: after a durable checkpoint: the run is partial but resumable with
#: ``--resume``.  75 is BSD's EX_TEMPFAIL ("temporary failure, retry").
EXIT_INTERRUPTED = 75

ENTRY_STATUSES = ("completed", "retried", "resumed", "timed-out", "skipped")

#: Statuses that carry a usable experiment result.
_PRODUCTIVE = ("completed", "retried", "resumed")


@dataclass(frozen=True)
class CampaignOutcome:
    """Final classification of one campaign entry."""

    entry: CampaignEntry
    status: str
    attempts: int
    elapsed_s: float
    result: Optional[ExperimentResult]
    violations: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.status not in ENTRY_STATUSES:
            raise CampaignError(
                f"unknown outcome status {self.status!r}; expected one "
                f"of {ENTRY_STATUSES}"
            )

    @property
    def entry_id(self) -> str:
        return self.entry.entry_id

    @property
    def ok(self) -> bool:
        """Produced a result and every recorded claim held."""
        return self.status in _PRODUCTIVE and not self.violations


@dataclass
class CampaignReport:
    """Everything one campaign run did, entry by entry."""

    campaign: str
    outcomes: List[CampaignOutcome] = field(default_factory=list)
    interrupted: bool = False
    journal_path: Optional[pathlib.Path] = None
    signal_name: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.interrupted and all(o.ok for o in self.outcomes)

    @property
    def counts(self) -> Dict[str, int]:
        """Entries per status, every status present (possibly 0)."""
        counts = {status: 0 for status in ENTRY_STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    @property
    def exit_code(self) -> int:
        if self.interrupted:
            return EXIT_INTERRUPTED
        return EXIT_OK if self.ok else EXIT_PROBLEMS

    def outcome(self, entry_id: str) -> CampaignOutcome:
        for candidate in self.outcomes:
            if candidate.entry_id == entry_id:
                return candidate
        raise CampaignError(
            f"campaign '{self.campaign}' has no outcome for '{entry_id}'"
        )

    def results(self) -> Dict[str, ExperimentResult]:
        """Experiment results of every productive entry, by entry id."""
        return {
            o.entry_id: o.result
            for o in self.outcomes
            if o.result is not None
        }
