"""The performance-contract layer (REP301-REP304).

Covers the hot-region closure, every cost rule's positive and negative
fixture (including the planted pool-safe quadratic scan — certified
pure by the effect layer, caught by REP302), and the ``--perf`` CLI
surface.  The content-hash cache is covered once for all layers in
``test_summary_cache.py``.
"""

from __future__ import annotations

import pathlib
import shutil

from repro.core.durable import atomic_write_json
from repro.lint.cli import main as lint_main
from repro.lint.effects import TIER_POOL_SAFE, TIER_RANK, analyze_effects
from repro.lint.perf import PERF_CODES, PERF_RULES, analyze_perf

PERF_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "perf"


def copy_fixture(tmp_path: pathlib.Path, name: str) -> pathlib.Path:
    target = tmp_path / name
    shutil.copy(PERF_FIXTURES / name, target)
    return target


def write_certificate_stub(tmp_path, functions):
    """A minimal determinism certificate the perf layer can judge by."""
    path = tmp_path / ".repro-effects.json"
    atomic_write_json(
        path,
        {"format_version": 1, "modules": {}, "functions": functions},
    )
    return path


def analyze_fixture(tmp_path, name, *, certificate=None, **kwargs):
    target = copy_fixture(tmp_path, name)
    if certificate is not None:
        kwargs["certificate_path"] = write_certificate_stub(
            tmp_path, certificate
        )
    return analyze_perf([target], root=tmp_path, **kwargs)


def analyze_source(tmp_path, source, **kwargs):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return analyze_perf([target], root=tmp_path, **kwargs)


def codes_of(result):
    return sorted({f.code for f in result.findings})


def hot_entries(analysis):
    """Functions carrying an ``@hot`` decorator."""
    return frozenset(
        qualname
        for qualname, summary in analysis.graph.functions.items()
        if summary.is_hot
    )


# ----------------------------------------------------------------------
# Hot region
# ----------------------------------------------------------------------


class TestHotRegion:
    def test_region_is_callgraph_closure_of_declared_entries(
        self, tmp_path
    ):
        result = analyze_fixture(tmp_path, "rep304_bad.py")
        analysis = result.analysis
        assert hot_entries(analysis) == frozenset({"rep304_bad.drive"})
        # mystery carries no decorator but is reachable from drive
        assert "rep304_bad.mystery" in analysis.hot_region

    def test_cold_code_may_allocate_freely(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "class Sample:\n"
            "    def __init__(self, t):\n"
            "        self.t = t\n"
            "\n"
            "\n"
            "def drain(pairs):\n"
            "    return [Sample(t) for t in pairs]\n",
        )
        assert result.findings == []
        assert result.analysis.hot_region == frozenset()

    def test_aliased_decorator_still_declares(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "from repro.hotpath import hot as fast\n"
            "\n"
            "\n"
            "@fast\n"
            "def drain(pairs):\n"
            "    return list(pairs)\n",
        )
        assert hot_entries(result.analysis) == frozenset({"mod.drain"})


# ----------------------------------------------------------------------
# REP301-REP304 fixtures
# ----------------------------------------------------------------------


class TestCostRules:
    def test_rep301_fires_on_unslotted_loop_construction(self, tmp_path):
        result = analyze_fixture(tmp_path, "rep301_bad.py")
        assert codes_of(result) == ["REP301"]
        (finding,) = result.findings
        assert "rep301_bad.Sample" in finding.message
        assert finding.path == "rep301_bad.py"

    def test_rep301_slotted_record_is_clean(self, tmp_path):
        assert analyze_fixture(tmp_path, "rep301_good.py").findings == []

    def test_rep302_fires_on_list_membership_in_loop(self, tmp_path):
        result = analyze_fixture(tmp_path, "rep302_bad.py")
        assert codes_of(result) == ["REP302"]
        (finding,) = result.findings
        assert "'done'" in finding.message

    def test_rep302_hashed_membership_is_clean(self, tmp_path):
        assert analyze_fixture(tmp_path, "rep302_good.py").findings == []

    def test_planted_quadratic_scan_is_pool_safe_yet_flagged(
        self, tmp_path
    ):
        """Purity and asymptotics are independent axes (DESIGN.md §18)."""
        target = copy_fixture(tmp_path, "rep302_bad.py")
        effects = analyze_effects([target], root=tmp_path)
        tier = effects.analysis.tiers["rep302_bad.survivors"]
        assert TIER_RANK[tier] >= TIER_RANK[TIER_POOL_SAFE]
        perf = analyze_perf([target], root=tmp_path)
        assert codes_of(perf) == ["REP302"]

    def test_rep303_fires_on_invariant_certified_pure_call(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            "rep303_bad.py",
            certificate={"rep303_bad.unit_cost": "pure"},
        )
        assert codes_of(result) == ["REP303"]

    def test_rep303_hoisted_call_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            "rep303_good.py",
            certificate={"rep303_good.unit_cost": "pure"},
        )
        assert result.findings == []

    def test_rep303_and_304_stay_silent_without_certificate(self, tmp_path):
        # The perf layer refuses to guess about effects.
        assert analyze_fixture(tmp_path, "rep303_bad.py").findings == []
        assert analyze_fixture(tmp_path, "rep304_bad.py").findings == []

    def test_rep304_fires_on_uncertified_undeclared_callee(self, tmp_path):
        result = analyze_fixture(
            tmp_path, "rep304_bad.py", certificate={}
        )
        assert codes_of(result) == ["REP304"]
        (finding,) = result.findings
        assert "rep304_bad.mystery" in finding.message

    def test_rep304_declared_hot_callee_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path, "rep304_good.py", certificate={}
        )
        assert result.findings == []

    def test_rep304_any_certified_tier_suffices(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            "rep304_bad.py",
            certificate={"rep304_bad.mystery": "deterministic"},
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# profile_path is accepted and ignored
# ----------------------------------------------------------------------


class TestProfilePathIgnored:
    def test_corrupt_profile_path_changes_nothing(self, tmp_path):
        """``bench/workloads/lint_gate.py``'s traced run still passes
        ``profile_path``; the perf layer ignores it."""
        certificate = write_certificate_stub(tmp_path, {})
        target = copy_fixture(tmp_path, "rep304_bad.py")
        corrupt = tmp_path / ".repro-profile.json"
        corrupt.write_text("{not json")
        kwargs = dict(root=tmp_path, certificate_path=certificate)
        plain = analyze_perf([target], **kwargs)
        given = analyze_perf([target], profile_path=corrupt, **kwargs)
        assert codes_of(plain) == ["REP304"]
        assert given.findings == plain.findings


# ----------------------------------------------------------------------
# CLI: repro lint --perf
# ----------------------------------------------------------------------


class TestLintCli:
    def test_perf_flag_enables_the_layer(self, tmp_path, capsys):
        target = copy_fixture(tmp_path, "rep301_bad.py")
        code = lint_main(
            [str(target), "--root", str(tmp_path), "--perf"]
        )
        assert code == 1
        assert "REP301" in capsys.readouterr().out

    def test_perf_is_off_by_default(self, tmp_path):
        target = copy_fixture(tmp_path, "rep301_good.py")
        # The good fixture is clean under every layer; the bad one only
        # differs by the perf finding, so a default run must pass both.
        assert lint_main([str(target), "--root", str(tmp_path)]) == 0

    def test_selecting_a_perf_code_auto_enables(self, tmp_path, capsys):
        target = copy_fixture(tmp_path, "rep301_bad.py")
        code = lint_main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--select",
                "REP301",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REP301" in out

    def test_clear_cache_removes_the_perf_cache(self, tmp_path):
        """The perf cache is ROOT/.repro-perf-cache.json: deleting it
        clears it, and the next --perf run rebuilds it."""
        target = copy_fixture(tmp_path, "rep301_good.py")
        cache = tmp_path / ".repro-perf-cache.json"
        argv = [str(target), "--root", str(tmp_path), "--perf"]
        assert lint_main(argv) == 0
        assert cache.exists()
        cache.unlink()
        assert lint_main(argv) == 0
        assert cache.exists()

    def test_rules_table_lists_the_perf_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in PERF_RULES:
            assert rule.code in out
        assert "REP305" not in out
        assert PERF_CODES == frozenset(
            {"REP301", "REP302", "REP303", "REP304"}
        )

