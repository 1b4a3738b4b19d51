"""The performance-contract layer (REP301-REP305) and ``repro profile``.

Covers the hot-region closure, every cost rule's positive and negative
fixture (including the planted pool-safe quadratic scan — certified
pure by the effect layer, caught by REP302), the deterministic call
profiler and its artifact, cross-validation in both directions, the
``--perf`` CLI surface, and the ``repro profile`` exit-code contract.
The content-hash cache is covered once for all layers in
``test_summary_cache.py``.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.cli import main as repro_main
from repro.core.durable import atomic_write_json, canonical_json
from repro.lint import LintError
from repro.lint.cli import main as lint_main
from repro.lint.effects import TIER_POOL_SAFE, TIER_RANK, analyze_effects
from repro.lint.perf import (
    PERF_CODES,
    PERF_RULES,
    analyze_perf,
    build_profile_document,
    cross_validate,
    load_profile,
    measured_hot,
)
from repro.lint.perf.profile import (
    collect_call_counts,
    write_profile,
)

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


# ----------------------------------------------------------------------
# Hot region
# ----------------------------------------------------------------------


class TestHotRegion:
    def test_region_is_callgraph_closure_of_declared_entries(
        self, tmp_path
    ):
        result = analyze_fixture(tmp_path, "rep304_bad.py")
        analysis = result.analysis
        assert analysis.hot_entries == frozenset({"rep304_bad.drive"})
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
        assert result.analysis.hot_entries == frozenset({"mod.drain"})


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
# The deterministic call profiler
# ----------------------------------------------------------------------


def _leaf(x):
    return x + 1


def _outer(y):
    def inner(z):
        return _leaf(z)

    return inner(y)


class TestCollector:
    def test_counts_are_exact(self):
        def workload():
            for i in range(3):
                _leaf(i)

        counts = collect_call_counts(workload, prefix=__name__)
        assert counts[f"{__name__}._leaf"] == 3

    def test_nested_qualnames_match_static_spelling(self):
        # co_qualname says ``_outer.<locals>.inner``; the extractor says
        # ``_outer.inner`` — the tracer must normalize to the latter.
        counts = collect_call_counts(lambda: _outer(1), prefix=__name__)
        assert f"{__name__}._outer.inner" in counts
        assert not any("<locals>" in k for k in counts)

    def test_prefix_filters_foreign_modules(self):
        def workload():
            import json

            json.dumps({"a": 1})
            _leaf(0)

        counts = collect_call_counts(workload, prefix=__name__)
        assert all(k.startswith(__name__) for k in counts)

    def test_counting_is_deterministic(self):
        def workload():
            for i in range(5):
                _outer(i)

        first = collect_call_counts(workload, prefix=__name__)
        second = collect_call_counts(workload, prefix=__name__)
        assert first == second


# ----------------------------------------------------------------------
# Profile artifact
# ----------------------------------------------------------------------


class TestProfileArtifact:
    COUNTS = {"m.hotfn": 90, "m.coldfn": 5, "m.entry": 5}

    def test_document_shares_sum_to_one(self):
        doc = build_profile_document(self.COUNTS, workload="w")
        assert doc["total_calls"] == 100
        assert sum(f["share"] for f in doc["functions"].values()) == (
            pytest.approx(1.0)
        )

    def test_document_is_byte_stable(self):
        a = build_profile_document(dict(self.COUNTS), workload="w")
        b = build_profile_document(
            dict(reversed(list(self.COUNTS.items()))), workload="w"
        )
        assert canonical_json(a) == canonical_json(b)

    def test_round_trip(self, tmp_path):
        doc = build_profile_document(self.COUNTS, workload="w")
        path = tmp_path / "profile.json"
        write_profile(path, doc)
        assert load_profile(path) == doc

    def test_missing_profile_is_none(self, tmp_path):
        assert load_profile(tmp_path / "absent.json") is None

    def test_corrupt_profile_is_an_error(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(LintError):
            load_profile(path)

    def test_malformed_functions_map_is_an_error(self, tmp_path):
        path = tmp_path / "profile.json"
        atomic_write_json(
            path,
            {
                "format_version": 1,
                "workload": "w",
                "threshold": 0.01,
                "total_calls": 1,
                "functions": {"m.f": {"share": 1.0}},  # calls missing
            },
        )
        with pytest.raises(LintError):
            load_profile(path)

    def test_measured_hot_respects_threshold(self):
        doc = build_profile_document(
            self.COUNTS, workload="w", threshold=0.5
        )
        assert measured_hot(doc) == {"m.hotfn": pytest.approx(0.9)}
        assert set(measured_hot(doc, threshold=0.01)) == set(self.COUNTS)


# ----------------------------------------------------------------------
# Cross-validation
# ----------------------------------------------------------------------


class TestCrossValidate:
    DOC = build_profile_document(
        {"m.entry": 10, "m.popular": 90}, workload="w"
    )

    def test_undeclared_hot_direction(self):
        agreement = cross_validate(
            self.DOC,
            hot_region=frozenset({"m.entry"}),
            declared=frozenset({"m.entry"}),
            known=frozenset({"m.entry", "m.popular"}),
        )
        assert agreement.undeclared_hot == [
            ("m.popular", pytest.approx(0.9))
        ]
        assert not agreement.agrees

    def test_known_filter_excludes_generated_identities(self):
        # A dataclass __init__ or genexpr can never carry a decorator;
        # outside ``known`` it must not fail the contract.
        agreement = cross_validate(
            self.DOC,
            hot_region=frozenset({"m.entry"}),
            declared=frozenset({"m.entry"}),
            known=frozenset({"m.entry"}),
        )
        assert agreement.undeclared_hot == []
        assert agreement.agrees

    def test_unreached_declared_direction(self):
        agreement = cross_validate(
            self.DOC,
            hot_region=frozenset({"m.entry", "m.popular", "m.stale"}),
            declared=frozenset({"m.entry", "m.stale"}),
            known=frozenset({"m.entry", "m.popular", "m.stale"}),
        )
        assert agreement.unreached_declared == ["m.stale"]
        assert not agreement.agrees

    def test_agreement(self):
        agreement = cross_validate(
            self.DOC,
            hot_region=frozenset({"m.entry", "m.popular"}),
            declared=frozenset({"m.entry"}),
            known=frozenset({"m.entry", "m.popular"}),
        )
        assert agreement.agrees
        assert agreement.total_calls == 100


# ----------------------------------------------------------------------
# REP305
# ----------------------------------------------------------------------


class TestRep305:
    def _profile_for(self, tmp_path, counts):
        path = tmp_path / ".repro-profile.json"
        write_profile(
            path, build_profile_document(counts, workload="test")
        )
        return path

    def test_fires_on_planted_undeclared_hot_function(self, tmp_path):
        target = copy_fixture(tmp_path, "rep305_host.py")
        profile = self._profile_for(
            tmp_path,
            {
                "rep305_host.declared_entry": 5,
                "rep305_host.helper": 5,
                "rep305_host.popular": 90,
            },
        )
        result = analyze_perf(
            [target], root=tmp_path, profile_path=profile
        )
        assert codes_of(result) == ["REP305"]
        (finding,) = result.findings
        assert "rep305_host.popular" in finding.message
        assert finding.path == "rep305_host.py"

    def test_silent_when_profile_agrees(self, tmp_path):
        target = copy_fixture(tmp_path, "rep305_host.py")
        profile = self._profile_for(
            tmp_path,
            {
                "rep305_host.declared_entry": 50,
                "rep305_host.helper": 50,
            },
        )
        result = analyze_perf(
            [target], root=tmp_path, profile_path=profile
        )
        assert result.findings == []

    def test_silent_without_a_profile(self, tmp_path):
        target = copy_fixture(tmp_path, "rep305_host.py")
        assert analyze_perf([target], root=tmp_path).findings == []


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
        target = copy_fixture(tmp_path, "rep301_good.py")
        cache = tmp_path / ".repro-perf-cache.json"
        assert (
            lint_main([str(target), "--root", str(tmp_path), "--perf"])
            == 0
        )
        assert cache.exists()
        assert (
            lint_main(
                [
                    str(target),
                    "--root",
                    str(tmp_path),
                    "--clear-cache",
                ]
            )
            == 0
        )
        assert not cache.exists()

    def test_rules_table_lists_the_perf_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in PERF_RULES:
            assert rule.code in out
        assert sorted(PERF_CODES) == [
            "REP301",
            "REP302",
            "REP303",
            "REP304",
            "REP305",
        ]


# ----------------------------------------------------------------------
# The profiler-agreement golden and the exit-code contract
# ----------------------------------------------------------------------


class TestProfileCommand:
    def test_committed_profile_agrees_with_static_hot_region(
        self, repo_root
    ):
        """The reviewed artifact must match the shipped source tree."""
        profile = load_profile(repo_root / ".repro-profile.json")
        assert profile is not None
        result = analyze_perf(
            [repo_root / "src" / "repro"], root=repo_root
        )
        agreement = cross_validate(
            profile,
            hot_region=result.analysis.hot_region,
            declared=result.analysis.hot_entries,
            known=frozenset(result.analysis.locations),
        )
        assert agreement.agrees, (
            agreement.undeclared_hot,
            agreement.unreached_declared,
        )

    def test_exit_zero_on_agreement(self, repo_root, capsys):
        code = repro_main(
            [
                "profile",
                str(repo_root / "src" / "repro"),
                "--root",
                str(repo_root),
                "--check",
                "--count",
                "8",
            ]
        )
        assert code == 0
        assert "agree in both directions" in capsys.readouterr().out

    def test_exit_one_on_disagreement(self, repo_root, capsys):
        # An absurdly low threshold turns every cold-but-called project
        # function into a measured-hot claim the static set cannot meet.
        code = repro_main(
            [
                "profile",
                str(repo_root / "src" / "repro"),
                "--root",
                str(repo_root),
                "--check",
                "--count",
                "2",
                "--threshold",
                "0.000001",
            ]
        )
        assert code == 1
        assert "MEASURED-NOT-DECLARED" in capsys.readouterr().out

    def test_exit_two_on_bad_count(self, repo_root, capsys):
        code = repro_main(
            [
                "profile",
                str(repo_root / "src" / "repro"),
                "--root",
                str(repo_root),
                "--check",
                "--count",
                "0",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("threshold", ["-1", "0", "1.5", "nan"])
    def test_exit_two_on_threshold_outside_unit_interval(
        self, repo_root, capsys, threshold
    ):
        code = repro_main(
            [
                "profile",
                str(repo_root / "src" / "repro"),
                "--root",
                str(repo_root),
                "--check",
                "--count",
                "1",
                "--threshold",
                threshold,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --threshold must be in (0, 1]\n"
        assert captured.out == ""

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        code = repro_main(
            [
                "profile",
                str(tmp_path / "no-such-dir"),
                "--root",
                str(tmp_path),
                "--check",
                "--count",
                "1",
            ]
        )
        assert code == 2
