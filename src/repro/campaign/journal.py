"""The durable campaign journal: what a killed run resumes from.

Format 3 is a write-ahead log of compact JSON lines.  The first line is
the header (``format_version``, ``campaign``, ``manifest_sha256``),
written atomically (temp file + fsync + rename, :mod:`repro.core.durable`);
every settled entry is then **one appended line**, encoded once and
fsynced before ``commit`` returns, so a commit costs what it adds and no
earlier record is ever re-encoded or rewritten.  A process killed at any
byte leaves every complete line plus at most a fragment of the one
commit that was never acknowledged.  The reader drops that fragment —
``--resume`` re-runs its entry, deterministically, so the drop cannot
change a result — and the first commit after such a load rewrites the
file atomically without it, then appends.  Formats 1 (one document)
and 2 (lines, indented-JSON digests) are read, their digests checked
their way, and upgraded to format 3 by that same rewrite.

:meth:`CampaignJournal.load` never writes (``campaign-status`` calls it
while a campaign may be appending) and trusts nothing:

- the header must parse and carry a supported ``format_version``;
- the journal must have been written for the *same manifest* (fingerprint
  match), so a resume cannot run against a stale journal;
- every record carries a SHA-256 over its payload; a failed checksum, a
  duplicate id, or anything unreadable *before* the final line raises
  :class:`~repro.core.durable.CorruptStoreError` instead of silently
  resuming from bad data.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.durable import (
    CorruptStoreError,
    append_text,
    atomic_write_text,
    check_format_version,
    compact_json,
    content_digest,
    json_field,
    json_value,
    legacy_digest,
    read_text_document,
)
from repro.errors import CampaignError, ReproError

__all__ = ["JournalRecord", "CampaignJournal", "JOURNAL_FORMAT_VERSION"]

JOURNAL_FORMAT_VERSION = 3
_KIND = "campaign journal"
_REMEDY = "delete it and re-run the campaign from scratch"

#: Entry statuses a journal may record (settled outcomes only — entries
#: that never settled are simply absent and will be re-run on resume).
SETTLED_STATUSES = ("completed", "retried", "timed-out")


@dataclass(frozen=True)
class JournalRecord:
    """One settled campaign entry.

    ``payload`` is the entry's serialized
    :class:`~repro.workloads.experiments.ExperimentResult`
    (:func:`~repro.analysis.results_io.result_to_dict` form), or ``None``
    for a timed-out entry that never produced one.
    """

    entry_id: str
    status: str
    attempts: int
    elapsed_s: float
    payload: Optional[Dict[str, Any]]
    violations: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.status not in SETTLED_STATUSES:
            raise CampaignError(
                f"journal record '{self.entry_id}': status {self.status!r} "
                f"is not a settled status {SETTLED_STATUSES}"
            )
        if self.attempts < 1:
            raise CampaignError(
                f"journal record '{self.entry_id}': attempts must be >= 1"
            )


def _corrupt(path: pathlib.Path, what: str) -> CorruptStoreError:
    return CorruptStoreError(f"{_KIND} '{path}' is corrupt ({what}); {_REMEDY}")


def _parse_line(line: str) -> Optional[Dict[str, Any]]:
    """The JSON object ``line`` holds, ``None`` when it holds none."""
    try:
        data = json.loads(line)
    except ValueError:  # JSONDecodeError, or an integer too long to parse
        return None
    return data if isinstance(data, dict) else None


def _record_line(record: JournalRecord) -> str:
    return compact_json(
        {
            "entry_id": record.entry_id,
            "status": record.status,
            "attempts": record.attempts,
            "elapsed_s": record.elapsed_s,
            "violations": list(record.violations),
            "payload": record.payload,
            "sha256": content_digest(record.payload),
        }
    )


def _record_from_dict(data: Any, path: pathlib.Path, legacy: bool) -> JournalRecord:
    # Outside the payload's checksum: nothing but this parse checks these.
    try:
        data = json_value("record", data, dict)
        entry_id = json_field(data, "entry_id", str)
        where = f"entry '{entry_id}': "
        stored_digest = json_field(data, "sha256", str, where=where)
        payload = json_field(data, "payload", object, where=where)
        record = JournalRecord(
            entry_id=entry_id,
            status=json_field(data, "status", str, where=where),
            attempts=json_field(data, "attempts", int, where=where),
            elapsed_s=json_field(data, "elapsed_s", float, where=where),
            payload=payload,
            violations=json_field(data, "violations", list, of=str, where=where),
        )
    except ReproError as exc:
        raise _corrupt(path, f"malformed record: {exc}") from exc
    if stored_digest != (legacy_digest(payload) if legacy else content_digest(payload)):
        raise _corrupt(path, f"checksum mismatch on entry '{entry_id}'")
    return record


class CampaignJournal:
    """Durable, append-only record of settled campaign entries."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.campaign: Optional[str] = None
        self.fingerprint: Optional[str] = None
        self._records: Dict[str, JournalRecord] = {}
        #: ``load`` saw a torn tail or an older format: rewrite, then append.
        self._stale = False

    @property
    def exists(self) -> bool:
        return self.path.exists()

    @property
    def records(self) -> Dict[str, JournalRecord]:
        """The in-memory view of settled entries (id -> record)."""
        return dict(self._records)

    def _header_line(self) -> str:
        return compact_json(
            {
                "format_version": JOURNAL_FORMAT_VERSION,
                "campaign": self.campaign,
                "manifest_sha256": self.fingerprint,
            }
        )

    def initialize(self, campaign: str, fingerprint: str) -> None:
        """Start a fresh journal bound to one manifest fingerprint.

        Refuses to clobber an existing journal — the runner must decide
        explicitly (resume, or delete the file) before losing state.
        """
        if self.exists:
            raise CampaignError(
                f"campaign journal '{self.path}' already exists; resume "
                "the campaign (--resume) or delete the journal to start "
                "fresh"
            )
        self.campaign = campaign
        self.fingerprint = fingerprint
        self._records = {}
        atomic_write_text(self.path, self._header_line())

    def load(
        self, expected_fingerprint: Optional[str] = None, *,
        legacy_fingerprint: Optional[str] = None,
    ) -> Dict[str, JournalRecord]:
        """Read and verify the journal; returns settled records by id.

        Read-only: an unterminated or unparsable *final* line (a commit
        never acknowledged) is ignored here, removed by the next commit.
        A format-1 or -2 header is checked against ``legacy_fingerprint``
        (the manifest digested the old way) and rebound to the expected one.
        """
        text = read_text_document(self.path, _KIND, _REMEDY)
        first, newline, body = text.partition("\n")
        # A format-1 journal is one indented document, not a header line.
        header = _parse_line(first) or _parse_line(text)
        if header is None:
            raise _corrupt(self.path, "no readable header line")
        corrupt = functools.partial(_corrupt, self.path)
        version = header.get("format_version")
        if version == 1:
            stale, raws = True, json_field(header, "entries", list, error=corrupt)
        else:
            if version != 2:
                check_format_version(
                    header, _KIND, JOURNAL_FORMAT_VERSION, source=str(self.path)
                )
            if not newline:
                raise _corrupt(self.path, "truncated header line")
            lines = body.split("\n")
            stale = lines.pop() != ""  # an unterminated final line
            raws = [_parse_line(line) for line in lines]
            if raws and raws[-1] is None and not stale:
                raws.pop()  # a terminated final line that does not parse
                stale = True
            if None in raws:
                raise _corrupt(self.path, f"unreadable line {raws.index(None) + 2}")
        campaign, fingerprint = (
            json_field(header, key, str, error=corrupt)
            for key in ("campaign", "manifest_sha256")
        )
        legacy = version != JOURNAL_FORMAT_VERSION
        if expected_fingerprint is not None and fingerprint != (
            legacy_fingerprint if legacy else expected_fingerprint
        ):
            raise CampaignError(
                f"campaign journal '{self.path}' was written for a "
                f"different manifest (campaign '{campaign}'); resuming "
                "would run the wrong experiments — use a new journal "
                "path, or delete the stale journal"
            )
        records: Dict[str, JournalRecord] = {}
        for raw in raws:
            record = _record_from_dict(raw, self.path, legacy)
            if records.setdefault(record.entry_id, record) is not record:
                raise _corrupt(self.path, f"duplicate entry '{record.entry_id}'")
        self.campaign = campaign
        # A legacy digest is never written back: rebound, or no commits.
        self.fingerprint = expected_fingerprint if legacy else fingerprint
        self._records = records
        self._stale = stale or legacy
        return self.records

    def commit(self, record: JournalRecord) -> None:
        """Durably append one settled entry: one line, one ``fsync``."""
        if self.fingerprint is None:
            raise CampaignError(
                "journal must be initialized or loaded with its fingerprint first"
            )
        if record.entry_id in self._records:
            raise CampaignError(
                f"entry '{record.entry_id}' is already journaled"
            )
        line = _record_line(record)
        if self._stale:
            atomic_write_text(
                self.path,
                self._header_line()
                + "".join(_record_line(r) for r in self._records.values()),
            )
            self._stale = False
        append_text(self.path, line)
        self._records[record.entry_id] = record
