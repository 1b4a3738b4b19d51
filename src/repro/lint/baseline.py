"""Baseline files: suppressed-but-tracked pre-existing violations.

A baseline is a durable canonical-JSON document mapping finding
identities — ``(code, path, snippet)``, deliberately line-number-free —
to occurrence counts.  Linting against a baseline partitions findings
into:

- **new**: occurrences beyond the baselined count (these fail the run),
- **suppressed**: occurrences the baseline covers, and
- **stale** baseline entries whose violations have since been fixed
  (reported so the baseline can be shrunk; it should only ever shrink).

Counting by identity rather than exact line means moving a violating
line does not produce a "new" finding, while editing the line's text
does — the contract is re-reviewed whenever the code it covers changes.
"""

from __future__ import annotations

import dataclasses
import pathlib
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.core.durable import atomic_write_json, read_json_document
from repro.lint.errors import LintError
from repro.lint.findings import Finding

__all__ = ["BASELINE_FORMAT_VERSION", "Baseline", "BaselinePartition"]

BASELINE_FORMAT_VERSION = 1

Identity = Tuple[str, str, str]  # (code, path, snippet)


@dataclasses.dataclass(frozen=True)
class BaselinePartition:
    """The result of matching findings against a baseline."""

    new: Tuple[Finding, ...]
    suppressed: Tuple[Finding, ...]
    stale: Tuple[Tuple[Identity, int], ...]  # identity -> uncovered count


@dataclasses.dataclass
class Baseline:
    """Identity -> allowed occurrence count."""

    entries: Dict[Identity, int] = dataclasses.field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(entries={})

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        counts = Counter(f.identity for f in findings)
        return cls(entries=dict(counts))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Baseline":
        data = read_json_document(
            path,
            "lint baseline",
            expected_version=BASELINE_FORMAT_VERSION,
            remedy="regenerate it with 'repro lint --write-baseline'",
        )
        raw_entries = data.get("entries")
        if not isinstance(raw_entries, list):
            raise LintError(
                f"lint baseline '{path}' has no 'entries' list; "
                "regenerate it with 'repro lint --write-baseline'"
            )
        entries: Dict[Identity, int] = {}
        for raw in raw_entries:
            if not isinstance(raw, dict):
                raise LintError(
                    f"lint baseline '{path}' entry is not an object"
                )
            try:
                identity = (
                    str(raw["code"]),
                    str(raw["path"]),
                    str(raw["snippet"]),
                )
                count = int(raw["count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise LintError(
                    f"lint baseline '{path}' entry missing "
                    "code/path/snippet/count"
                ) from exc
            if count < 1:
                raise LintError(
                    f"lint baseline '{path}' entry for {identity[0]} at "
                    f"{identity[1]} has non-positive count {count}"
                )
            entries[identity] = entries.get(identity, 0) + count
        return cls(entries=entries)

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        payload = {
            "format_version": BASELINE_FORMAT_VERSION,
            "tool": "repro.lint",
            "entries": [
                {
                    "code": code,
                    "path": rel,
                    "snippet": snippet,
                    "count": count,
                }
                for (code, rel, snippet), count in sorted(
                    self.entries.items()
                )
            ],
        }
        return atomic_write_json(path, payload)

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def count_for_code(self, code: str) -> int:
        """Baselined occurrences of one rule code (tests pin this)."""
        return sum(
            count
            for (entry_code, _, _), count in self.entries.items()
            if entry_code == code
        )

    def partition(self, findings: Sequence[Finding]) -> BaselinePartition:
        """Split findings into new vs suppressed; report stale entries.

        Within one identity group, the earliest occurrences (by line) are
        the suppressed ones — so when an extra duplicate of a baselined
        violation appears, exactly one finding is reported as new.
        """
        remaining = dict(self.entries)
        new: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in sorted(findings, key=Finding.sort_key):
            credit = remaining.get(finding.identity, 0)
            if credit > 0:
                remaining[finding.identity] = credit - 1
                suppressed.append(finding)
            else:
                new.append(finding)
        stale = tuple(
            (identity, count)
            for identity, count in sorted(remaining.items())
            if count > 0
        )
        return BaselinePartition(
            new=tuple(new), suppressed=tuple(suppressed), stale=stale
        )
