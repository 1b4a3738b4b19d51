"""The shipped tree honors its own contracts.

These tests are the lint gate in test form: ``src/repro`` has zero
non-baselined findings — intraprocedural *and* whole-program —
the checked-in baseline is empty — the REP006 exact-compare debt was
burned down to zero by rewriting the fault-factor sentinels in
``middleware/runtime.py`` as inequalities — and introducing any bad
fixture into the tree would fail the gate.
"""

from __future__ import annotations

from repro.lint import Baseline, lint_paths, lint_source

BASELINE_NAME = "lint-baseline.json"

# The tracked-debt budget per rule code.  Shrink-only: lowering a count
# after fixing a site is expected; raising one is a contract regression
# and must instead fix the new violation.
TRACKED_DEBT = {
    "REP001": 0,
    "REP002": 0,
    "REP003": 0,
    "REP004": 0,
    "REP005": 0,  # the burn-down left no bare builtin raises
    "REP006": 0,  # the != 1.0 sentinels were rewritten as inequalities
    "REP007": 0,
    "REP008": 0,
    "REP009": 0,  # service/broker/campaign shipped with every wait bounded
    # The flow layer ships clean: no baselined units findings.
    "REP104": 0,
    # The effect family ships clean: the tree certifies with zero
    # baselined effect findings.
    "REP203": 0,
    "REP204": 0,
    "REP205": 0,
}


def test_src_repro_is_clean_modulo_baseline(repo_root):
    findings = lint_paths([repo_root / "src" / "repro"], root=repo_root)
    baseline = Baseline.load(repo_root / BASELINE_NAME)
    partition = baseline.partition(findings)
    assert partition.new == (), [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in partition.new
    ]
    # No stale entries either: the baseline matches the tree exactly.
    assert partition.stale == ()


def test_baseline_counts_can_only_shrink(repo_root):
    baseline = Baseline.load(repo_root / BASELINE_NAME)
    for code, budget in TRACKED_DEBT.items():
        assert baseline.count_for_code(code) <= budget, (
            f"{code} baseline grew past its budget of {budget}; fix the "
            "new violation instead of baselining it"
        )
    assert baseline.total == sum(TRACKED_DEBT.values())


def test_every_bad_fixture_would_fail_the_gate(repo_root, fixtures_dir):
    """Acceptance: introducing any bad example into src/repro is caught."""
    baseline = Baseline.load(repo_root / BASELINE_NAME)
    scoped_relpath = {
        # REP007 is scoped to serialization/report modules and REP009 to
        # the long-running layers; everything else fires anywhere under
        # src/repro.
        "rep007_bad.py": "src/repro/broker/report_injected.py",
        "rep009_bad.py": "src/repro/service/pool_injected.py",
    }
    for fixture in sorted(fixtures_dir.glob("rep*_bad.py")):
        relpath = scoped_relpath.get(
            fixture.name, f"src/repro/injected/{fixture.stem}.py"
        )
        findings = lint_source(fixture.read_text(), relpath)
        partition = baseline.partition(findings)
        assert partition.new, (
            f"{fixture.name} under {relpath} produced no non-baselined "
            "finding — the gate would miss it"
        )


def test_src_repro_flow_is_clean(repo_root, tmp_path):
    """The whole-program pass finds nothing to baseline on the tree."""
    from repro.lint import analyze_paths

    result = analyze_paths(
        [repo_root / "src" / "repro"],
        root=repo_root,
        cache_path=tmp_path / "flow-cache.json",
    )
    assert result.findings == [], [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.findings
    ]


def test_src_repro_effects_is_clean(repo_root, tmp_path):
    """The effect pass finds nothing on the tree, and the committed
    certificate matches the current analysis (no demotions)."""
    from repro.lint import analyze_effects

    result = analyze_effects(
        [repo_root / "src" / "repro"],
        root=repo_root,
        cache_path=tmp_path / "effects-cache.json",
        certificate_path=repo_root / ".repro-effects.json",
    )
    assert result.findings == [], [
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.findings
    ]


def test_certificate_file_is_canonical_json(repo_root):
    from repro.core.durable import canonical_json, read_json_document

    path = repo_root / ".repro-effects.json"
    data = read_json_document(
        path, "determinism certificate", expected_version=1
    )
    assert path.read_text() == canonical_json(data)


def test_lint_package_lints_itself(repo_root):
    """The checker's own modules satisfy every contract, unbaselined."""
    findings = lint_paths([repo_root / "src" / "repro" / "lint"],
                          root=repo_root)
    assert findings == [], [
        f"{f.path}:{f.line} {f.code}" for f in findings
    ]


def test_benchmarks_and_scripts_writers_are_durable(repo_root):
    """Satellite audit: result writers route through repro.core.durable."""
    findings = lint_paths(
        [repo_root / "benchmarks", repo_root / "scripts"], root=repo_root
    )
    rep004 = [f for f in findings if f.code == "REP004"]
    rep003 = [f for f in findings if f.code == "REP003"]
    assert rep004 == [], [f"{f.path}:{f.line}" for f in rep004]
    assert rep003 == [], [f"{f.path}:{f.line}" for f in rep003]


def test_baseline_file_is_canonical_json(repo_root):
    from repro.core.durable import canonical_json, read_json_document

    path = repo_root / BASELINE_NAME
    data = read_json_document(path, "lint baseline", expected_version=1)
    assert path.read_text() == canonical_json(data)
