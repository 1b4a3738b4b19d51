"""Finding and Fix: the data the rule engine produces.

A :class:`Finding` is one contract violation at one source location.  Its
:attr:`~Finding.identity` deliberately excludes the line number — baselines
match on ``(code, path, snippet)`` so that unrelated edits that shift a
violation up or down the file do not invalidate the baseline, while any
edit that *touches the violating line itself* does.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["CachedFindings", "Finding", "FindingSink", "Fix"]


@dataclasses.dataclass(frozen=True)
class Fix:
    """A mechanical source replacement for an autofixable finding.

    Spans are in the parser's coordinates: 1-based lines, 0-based columns,
    end-exclusive — exactly what ``ast`` puts on nodes, so rules can copy
    ``lineno``/``col_offset``/``end_lineno``/``end_col_offset`` verbatim.
    """

    start_line: int
    start_col: int
    end_line: int
    end_col: int
    replacement: str


@dataclasses.dataclass(frozen=True)
class Finding:
    """One violation of one registered rule at one source location."""

    code: str  # stable rule code, e.g. "REP003"
    message: str  # one-line human explanation of this occurrence
    path: str  # POSIX path relative to the lint root
    line: int  # 1-based
    col: int  # 1-based (display convention; ast col_offset + 1)
    snippet: str  # the violating source line, stripped (baseline identity)
    fix: Optional[Fix] = None

    @classmethod
    def at(
        cls,
        code: str,
        message: str,
        path: str,
        line: int,
        lines: Sequence[str],
        *,
        col: int = 1,
        fix: Optional[Fix] = None,
    ) -> "Finding":
        """A finding whose snippet is line ``line`` of ``lines``, stripped
        ('' when the line is out of range, e.g. a deleted function)."""
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return cls(code, message, path, line, col, snippet, fix)

    @property
    def fixable(self) -> bool:
        return self.fix is not None

    @property
    def identity(self) -> Tuple[str, str, str]:
        """What a baseline matches on: line-number-independent."""
        return (self.code, self.path, self.snippet)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
            "fixable": self.fixable,
        }


@dataclasses.dataclass
class CachedFindings:
    """Findings that are a pure function of source text, as one entry of
    a :class:`~repro.lint.summaries.SummaryCache`.  Unlike the report
    form (:meth:`Finding.to_dict`) fix spans round-trip, so ``--fix``
    works through a cache hit."""

    findings: List[Finding]

    def to_dict(self) -> Dict[str, Any]:
        return {"findings": [dataclasses.asdict(f) for f in self.findings]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CachedFindings":
        return cls(
            [
                Finding(**{**item, "fix": item["fix"] and Fix(**item["fix"])})
                for item in data["findings"]
            ]
        )


class FindingSink:
    """Collects whole-program findings, dropping exact repeats.

    ``sources`` maps each analyzed relpath to its source lines (for
    snippets — baseline identity needs the violating line's text).
    """

    def __init__(self, sources: Mapping[str, Sequence[str]]) -> None:
        self.sources = sources
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str, int, str]] = set()

    def emit(self, code: str, relpath: str, line: int, message: str) -> None:
        key = (code, relpath, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding.at(
                code, message, relpath, line, self.sources.get(relpath, ())
            )
        )

    def sorted(self) -> List[Finding]:
        return sorted(self.findings, key=Finding.sort_key)
