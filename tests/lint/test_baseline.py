"""Baseline semantics: round trip, line-shift invariance, shrink-only."""

from __future__ import annotations

import pytest

from repro.core.durable import CorruptStoreError, FormatVersionError
from repro.lint import Baseline, Finding, LintError


def make_finding(code="REP006", path="src/repro/m.py", line=5,
                 snippet="if x == 0.0:"):
    return Finding(
        code=code,
        message="test finding",
        path=path,
        line=line,
        col=1,
        snippet=snippet,
    )


def test_round_trip_through_disk(tmp_path):
    findings = [
        make_finding(line=5),
        make_finding(line=9),  # same identity, second occurrence
        make_finding(code="REP005", snippet="raise ValueError(...)"),
    ]
    baseline = Baseline.from_findings(findings)
    path = baseline.save(tmp_path / "baseline.json")
    reloaded = Baseline.load(path)
    assert reloaded.entries == baseline.entries
    assert reloaded.total == 3
    assert reloaded.count_for_code("REP006") == 2
    assert reloaded.count_for_code("REP005") == 1


def test_save_is_byte_deterministic(tmp_path):
    findings = [make_finding(), make_finding(code="REP005")]
    a = Baseline.from_findings(findings).save(tmp_path / "a.json")
    b = Baseline.from_findings(list(reversed(findings))).save(
        tmp_path / "b.json"
    )
    assert a.read_bytes() == b.read_bytes()


def test_line_shift_does_not_invalidate_the_baseline():
    baseline = Baseline.from_findings([make_finding(line=5)])
    moved = [make_finding(line=50)]  # same code/path/snippet, new line
    partition = baseline.partition(moved)
    assert partition.new == ()
    assert len(partition.suppressed) == 1
    assert partition.stale == ()


def test_extra_occurrence_beyond_the_count_is_new():
    baseline = Baseline.from_findings([make_finding(line=5)])
    partition = baseline.partition(
        [make_finding(line=5), make_finding(line=9)]
    )
    assert len(partition.suppressed) == 1
    assert len(partition.new) == 1
    # the earliest occurrence is the suppressed one
    assert partition.suppressed[0].line == 5
    assert partition.new[0].line == 9


def test_fixed_violations_surface_as_stale_entries():
    baseline = Baseline.from_findings([make_finding(), make_finding(
        code="REP005", snippet="raise ValueError(...)")])
    partition = baseline.partition([make_finding()])
    assert partition.new == ()
    assert len(partition.stale) == 1
    (identity, count), = partition.stale
    assert identity[0] == "REP005" and count == 1


def test_shrink_round_trip(tmp_path):
    """Fix a violation, rewrite the baseline: it records strictly less."""
    first = [make_finding(line=5), make_finding(line=9)]
    baseline = Baseline.from_findings(first)
    baseline.save(tmp_path / "baseline.json")
    after_fix = [make_finding(line=5)]
    shrunk = Baseline.from_findings(after_fix)
    shrunk.save(tmp_path / "baseline.json")
    reloaded = Baseline.load(tmp_path / "baseline.json")
    assert reloaded.total == 1 < baseline.total


def test_empty_baseline_suppresses_nothing():
    partition = Baseline.empty().partition([make_finding()])
    assert len(partition.new) == 1
    assert partition.suppressed == ()


def test_corrupt_baseline_is_reported_with_remedy(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"format_version": 1, "entries": [')
    with pytest.raises(CorruptStoreError, match="write-baseline"):
        Baseline.load(path)


def test_unknown_format_version_is_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"format_version": 99, "entries": []}')
    with pytest.raises(FormatVersionError):
        Baseline.load(path)


def test_malformed_entries_are_lint_errors(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"format_version": 1, "entries": [{"code": "X"}]}')
    with pytest.raises(LintError, match="entry missing"):
        Baseline.load(path)
    path.write_text('{"format_version": 1, "entries": 7}')
    with pytest.raises(LintError, match="entries"):
        Baseline.load(path)
