"""One good/bad fixture pair per rule: bad fires, good is silent.

Each fixture is linted with *all* rules active, under a synthetic
relpath chosen to be in the target rule's scope, so the tests also catch
cross-contamination (a bad example for one rule tripping another).
"""

from __future__ import annotations

import pytest

from repro.lint import lint_source

# (rule code, fixture stem, synthetic relpath, expected bad findings)
CASES = [
    ("REP001", "rep001", "src/repro/simgrid/clocked.py", 3),
    ("REP002", "rep002", "src/repro/workloads/drawn.py", 4),
    ("REP003", "rep003", "src/repro/broker/encode.py", 2),
    ("REP004", "rep004", "src/repro/campaign/persist.py", 2),
    ("REP005", "rep005", "src/repro/broker/validate.py", 2),
    ("REP006", "rep006", "src/repro/core/modelmath.py", 2),
    ("REP007", "rep007", "src/repro/broker/report_helpers.py", 2),
    ("REP008", "rep008", "src/repro/broker/shortcut.py", 2),
    ("REP009", "rep009", "src/repro/service/pool.py", 5),
]


@pytest.mark.parametrize(
    "code,stem,relpath,expected", CASES, ids=[c[0] for c in CASES]
)
def test_bad_fixture_fires_exactly_its_rule(
    fixtures_dir, code, stem, relpath, expected
):
    source = (fixtures_dir / f"{stem}_bad.py").read_text()
    findings = lint_source(source, relpath)
    assert {f.code for f in findings} == {code}
    assert len(findings) == expected
    for finding in findings:
        assert finding.path == relpath
        assert finding.line >= 1 and finding.col >= 1
        assert finding.snippet  # baselines need a non-empty identity
        assert finding.message


@pytest.mark.parametrize(
    "code,stem,relpath,expected", CASES, ids=[c[0] for c in CASES]
)
def test_good_fixture_is_silent(fixtures_dir, code, stem, relpath, expected):
    source = (fixtures_dir / f"{stem}_good.py").read_text()
    assert lint_source(source, relpath) == []


def _body(imports: str, expr: str) -> str:
    return f"{imports}\n\n\ndef f(xs, seed):\n    return {expr}\n"


#: (case, module source, the (code, line) findings) -- REP001 and REP002
#: match the import-resolved name, so only the read line counts.
RESOLVED_READS = [
    ("aliased-clock", _body("from time import time as ticks", "ticks()"),
     [("REP001", 5)]),
    ("module-alias", _body("import time as t", "t.perf_counter()"),
     [("REP001", 5)]),
    ("getenv", _body("import os", "os.getenv('X')"), [("REP001", 5)]),
    ("environ-get", _body("import os", "os.environ.get('X')"),
     [("REP001", 5)]),
    ("environ-imported", _body("from os import environ", "environ['X']"),
     [("REP001", 5)]),
    ("aliased-shuffle", _body("from random import shuffle as mix", "mix(xs)"),
     [("REP002", 5)]),
    ("uuid", _body("import uuid", "uuid.uuid4().hex"), [("REP002", 5)]),
    ("secrets", _body("from secrets import token_hex", "token_hex(8)"),
     [("REP002", 5)]),
    ("urandom", _body("import os", "os.urandom(8)"), [("REP002", 5)]),
    ("system-random", _body("import random", "random.SystemRandom(7)"),
     [("REP002", 5)]),
    ("aliased-constructor",
     _body("from numpy.random import default_rng as make", "make(seed), make()"),
     [("REP002", 5)]),
    ("not-the-time-module",
     _body("from repro.simgrid import engine as time", "time.time()"), []),
    ("formatdate-untimed",
     _body("from email.utils import formatdate", "formatdate(usegmt=True)"),
     [("REP001", 5)]),
    ("formatdate-none",
     _body("import email.utils as eu", "eu.formatdate(timeval=None)"),
     [("REP001", 5)]),
    ("formatdate-timed",
     _body("from email.utils import formatdate", "formatdate(seed)"), []),
]


@pytest.mark.parametrize(
    "case, source, expected",
    RESOLVED_READS,
    ids=[case for case, _, _ in RESOLVED_READS],
)
def test_rep001_and_rep002_match_resolved_names(case, source, expected):
    findings = lint_source(source, "src/repro/simgrid/drawn.py")
    assert [(f.code, f.line) for f in findings] == expected


def test_formatdate_without_a_time_is_a_clock_read(fixtures_dir):
    bad = (fixtures_dir / "rep001_formatdate_bad.py").read_text()
    findings = lint_source(bad, "src/repro/service/dated.py")
    assert [(f.code, f.line) for f in findings] == [
        ("REP001", 8), ("REP001", 9), ("REP001", 10)
    ]
    good = (fixtures_dir / "rep001_formatdate_good.py").read_text()
    assert lint_source(good, "src/repro/service/dated.py") == []
    # The service clock may read it, as it may read time.time().
    assert lint_source(bad, "src/repro/service/clock.py") == []


def test_an_aliased_read_names_what_it_resolves_to():
    source = _body("from time import time as ticks", "ticks()")
    (finding,) = lint_source(source, "src/repro/simgrid/clocked.py")
    assert "ticks() (time.time)" in finding.message


def test_rep001_allowlists_the_watchdog(fixtures_dir):
    source = (fixtures_dir / "rep001_bad.py").read_text()
    findings = lint_source(source, "src/repro/campaign/watchdog.py")
    assert [f for f in findings if f.code == "REP001"] == []


def test_rep003_and_rep004_allowlist_the_durable_layer(fixtures_dir):
    for stem in ("rep003_bad", "rep004_bad"):
        source = (fixtures_dir / f"{stem}.py").read_text()
        findings = lint_source(source, "src/repro/core/durable.py")
        assert findings == []


def test_rep007_only_applies_to_serialization_modules(fixtures_dir):
    source = (fixtures_dir / "rep007_bad.py").read_text()
    # Same code in a non-serialization module is in-memory logic: fine.
    assert lint_source(source, "src/repro/broker/policies.py") == []


def test_rep008_allowlists_the_engine(fixtures_dir):
    source = (fixtures_dir / "rep008_bad.py").read_text()
    assert lint_source(source, "src/repro/broker/engine.py") == []


def test_rep003_marks_only_the_missing_kwarg_fixable(fixtures_dir):
    source = (fixtures_dir / "rep003_bad.py").read_text()
    findings = lint_source(source, "src/repro/broker/encode.py")
    by_fixable = {f.fixable for f in findings}
    # dumps-without-sort_keys is fixable; explicit sort_keys=False is not
    assert by_fixable == {True, False}
