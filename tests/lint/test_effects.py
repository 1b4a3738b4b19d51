"""The interprocedural effect-and-determinism layer (REP203-REP205).

Covers the analysis itself (effect extraction, bottom-up propagation,
tier assignment), REP203's and REP204's positive and negative fixtures,
the determinism certificate (round-trip, shrink-only refusal, REP205
demotion findings, corruption), and the ``--effects`` CLI surface.  The
content-hash cache is covered once for all layers in
``test_summary_cache.py``.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.lint import Baseline, LintError
from repro.lint.effects import (
    TIER_DETERMINISTIC,
    TIER_EFFECTFUL,
    TIER_POOL_SAFE,
    TIER_PURE,
    analyze_effects,
    build_certificate,
    certificate_demotions,
    load_certificate,
    write_certificate,
)
from repro.lint.cli import main as lint_main

EFFECT_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "effects"


def analyze_fixture(tmp_path: pathlib.Path, name: str, **kwargs):
    """Copy one effects fixture into a scratch root and analyze it."""
    target = tmp_path / name
    shutil.copy(EFFECT_FIXTURES / name, target)
    return analyze_effects([target], root=tmp_path, **kwargs)


def analyze_source(tmp_path: pathlib.Path, source: str, **kwargs):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return analyze_effects([target], root=tmp_path, **kwargs)


def codes_of(result):
    return sorted({f.code for f in result.findings})


# ----------------------------------------------------------------------
# Tier assignment
# ----------------------------------------------------------------------


class TestTiers:
    def test_pure_function(self, tmp_path):
        result = analyze_source(
            tmp_path, "def f(x):\n    return x + 1\n"
        )
        assert result.analysis.tiers["mod.f"] == TIER_PURE

    def test_io_keeps_pool_safety_but_not_purity(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "from repro.core.durable import atomic_write_json\n\n\n"
            "def f(path, x):\n"
            "    atomic_write_json(path, {'x': x})\n",
        )
        assert result.analysis.tiers["mod.f"] == TIER_POOL_SAFE

    def test_global_write_demotes_to_deterministic(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "STATE = {}\n\n\ndef f(k, v):\n    STATE[k] = v\n",
        )
        assert result.analysis.tiers["mod.f"] == TIER_DETERMINISTIC

    def test_ambient_read_is_effectful(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "import time\n\n\ndef f():\n    return time.time()\n",
        )
        assert result.analysis.tiers["mod.f"] == TIER_EFFECTFUL

    def test_effects_propagate_transitively(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "import time\n\n\n"
            "def leaf():\n    return time.time()\n\n\n"
            "def mid():\n    return leaf()\n\n\n"
            "def top():\n    return mid()\n",
        )
        tiers = result.analysis.tiers
        assert tiers["mod.leaf"] == TIER_EFFECTFUL
        assert tiers["mod.mid"] == TIER_EFFECTFUL
        assert tiers["mod.top"] == TIER_EFFECTFUL

    def test_param_mutation_propagates_through_forwarding(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "def append_to(rows, row):\n    rows.append(row)\n\n\n"
            "def forward(items, row):\n    append_to(items, row)\n",
        )
        analysis = result.analysis
        assert "rows" in analysis.mutated_params["mod.append_to"]
        assert "items" in analysis.mutated_params["mod.forward"]
        assert analysis.tiers["mod.forward"] == TIER_DETERMINISTIC

    def test_effect_words_are_deterministic(self, tmp_path):
        result = analyze_source(
            tmp_path,
            "STATE = {}\n\n\n"
            "def f(rows, k):\n"
            "    rows.append(k)\n"
            "    STATE[k] = rows\n",
        )
        words = result.analysis.effect_words("mod.f")
        assert "global-write" in words
        assert "mutates(rows)" in words

    def test_defs_inside_blocks_get_summaries(self, tmp_path):
        """A ``def`` inside a ``with``/``if``/``for``/``while``/``try``
        block or ``match`` case is summarized under its enclosing scope."""
        result = analyze_source(
            tmp_path,
            "import contextlib\n"
            "import time\n\n\n"
            "def run(flag, cases):\n"
            "    with contextlib.nullcontext():\n"
            "        def scan_once():\n"
            "            return time.time()\n"
            "    if flag:\n"
            "        def chosen():\n"
            "            return 1\n"
            "    for case in cases:\n"
            "        def per_case():\n"
            "            return case\n"
            "    while flag:\n"
            "        def looped():\n"
            "            return 2\n"
            "    try:\n"
            "        pass\n"
            "    except OSError:\n"
            "        def handled():\n"
            "            return 3\n"
            "    finally:\n"
            "        def cleanup():\n"
            "            return 4\n"
            "    match flag:\n"
            "        case True:\n"
            "            def matched():\n"
            "                return 5\n"
            "    return scan_once()\n",
        )
        tiers = result.analysis.tiers
        assert tiers["mod.run.scan_once"] == TIER_EFFECTFUL
        for name in (
            "chosen", "per_case", "looped", "handled", "cleanup", "matched"
        ):
            assert tiers[f"mod.run.{name}"] == TIER_PURE, name


# ----------------------------------------------------------------------
# REP203 and REP204, fixture by fixture
# ----------------------------------------------------------------------


class TestRules:
    def test_rep203_unordered_to_sink(self, tmp_path):
        result = analyze_fixture(tmp_path, "rep203_bad.py")
        assert codes_of(result) == ["REP203"]

    def test_rep203_sorted_launders(self, tmp_path):
        result = analyze_fixture(tmp_path, "rep203_good.py")
        assert result.findings == []

    def test_rep204_mutable_default_and_alias(self, tmp_path):
        result = analyze_fixture(tmp_path, "rep204_bad.py")
        rep204 = [f for f in result.findings if f.code == "REP204"]
        assert len(rep204) == 3  # default bucket=[], its mutation+return,
        # and normalize's mutate-and-return aliasing

    def test_rep204_fluent_builder_is_exempt(self, tmp_path):
        result = analyze_fixture(tmp_path, "rep204_good.py")
        assert result.findings == []


# ----------------------------------------------------------------------
# Certificate
# ----------------------------------------------------------------------

CLEAN = (
    "def f(x):\n    return x + 1\n\n\ndef g(x):\n    return f(x) * 2\n"
)

DEMOTED = (
    "import time\n\n\n"
    "def f(x):\n    return time.time()\n\n\ndef g(x):\n    return f(x) * 2\n"
)


class TestCertificate:
    def test_round_trip(self, tmp_path):
        result = analyze_source(tmp_path, CLEAN)
        cert_path = tmp_path / "cert.json"
        write_certificate(cert_path, result.analysis, result.module_digests)
        cert = load_certificate(cert_path)
        assert cert["functions"] == {"mod.f": TIER_PURE, "mod.g": TIER_PURE}
        assert cert["modules"] == result.module_digests

    def test_effectful_functions_are_not_certified(self, tmp_path):
        result = analyze_source(tmp_path, DEMOTED)
        cert = build_certificate(result.analysis, result.module_digests)
        assert "mod.f" not in cert["functions"]
        assert "mod.g" not in cert["functions"]

    def test_shrink_only_refuses_demotions(self, tmp_path):
        result = analyze_source(tmp_path, CLEAN)
        cert_path = tmp_path / "cert.json"
        write_certificate(cert_path, result.analysis, result.module_digests)

        demoted = analyze_source(tmp_path, DEMOTED)
        with pytest.raises(LintError, match="refusing to demote"):
            write_certificate(
                cert_path, demoted.analysis, demoted.module_digests
            )
        # Explicit override is the reviewed escape hatch.
        write_certificate(
            cert_path,
            demoted.analysis,
            demoted.module_digests,
            allow_demotions=True,
        )
        assert load_certificate(cert_path)["functions"] == {}

    def test_demotion_surfaces_as_rep205_finding(self, tmp_path):
        result = analyze_source(tmp_path, CLEAN)
        cert_path = tmp_path / "cert.json"
        write_certificate(cert_path, result.analysis, result.module_digests)

        demoted = analyze_source(
            tmp_path, DEMOTED, certificate_path=cert_path
        )
        rep205 = [f for f in demoted.findings if f.code == "REP205"]
        assert len(rep205) == 2  # both f and g lost their tier
        assert any("certified 'pure'" in f.message for f in rep205)

    def test_demotions_list_names_and_tiers(self, tmp_path):
        result = analyze_source(tmp_path, CLEAN)
        cert = build_certificate(result.analysis, result.module_digests)
        demoted = analyze_source(tmp_path, DEMOTED)
        drops = certificate_demotions(cert, demoted.analysis)
        assert ("mod.f", TIER_PURE, TIER_EFFECTFUL) in drops

    def test_corrupt_certificate_is_a_lint_error(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("{not json")
        with pytest.raises(LintError):
            load_certificate(cert_path)

    def test_malformed_functions_map_is_a_lint_error(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(
            json.dumps({"format_version": 1, "modules": {}, "functions": []})
        )
        with pytest.raises(LintError, match="regenerate"):
            load_certificate(cert_path)

    def test_missing_certificate_is_none(self, tmp_path):
        assert load_certificate(tmp_path / "absent.json") is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestEffectsCli:
    def test_effects_flag_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        shutil.copy(EFFECT_FIXTURES / "rep204_bad.py", bad)
        code = lint_main([str(bad), "--effects", "--root", str(tmp_path)])
        assert code == 1
        assert "REP204" in capsys.readouterr().out

    def test_effects_off_by_default_for_plain_runs(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        shutil.copy(EFFECT_FIXTURES / "rep204_bad.py", bad)
        code = lint_main([str(bad), "--root", str(tmp_path)])
        assert code == 0

    def test_selecting_an_effect_code_enables_the_layer(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        shutil.copy(EFFECT_FIXTURES / "rep204_bad.py", bad)
        code = lint_main(
            [str(bad), "--select", "REP204", "--root", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REP204" in out

    def test_write_then_verify_certificate(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(CLEAN)
        cert = tmp_path / "cert.json"
        assert (
            lint_main(
                [
                    str(mod),
                    "--write-certificate",
                    "--certificate",
                    str(cert),
                    "--root",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "2 certified function(s)" in capsys.readouterr().out
        assert (
            lint_main(
                [
                    str(mod),
                    "--effects",
                    "--certificate",
                    str(cert),
                    "--root",
                    str(tmp_path),
                ]
            )
            == 0
        )

    def test_demotion_fails_the_gate(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(CLEAN)
        cert = tmp_path / "cert.json"
        lint_main(
            [
                str(mod),
                "--write-certificate",
                "--certificate",
                str(cert),
                "--root",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        mod.write_text(DEMOTED)
        code = lint_main(
            [
                str(mod),
                "--effects",
                "--certificate",
                str(cert),
                "--root",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "REP205" in capsys.readouterr().out

    def test_clear_cache_removes_both_caches(self, tmp_path):
        """Both caches live under ROOT: deleting them clears them, and
        the next run rebuilds both."""
        mod = tmp_path / "mod.py"
        mod.write_text(CLEAN)
        flow_cache = tmp_path / ".repro-flow-cache.json"
        effects_cache = tmp_path / ".repro-effects-cache.json"
        argv = [str(mod), "--effects", "--flow", "--root", str(tmp_path)]
        lint_main(argv)
        assert flow_cache.exists() and effects_cache.exists()
        flow_cache.unlink()
        effects_cache.unlink()
        lint_main(argv)
        assert flow_cache.exists() and effects_cache.exists()


# ----------------------------------------------------------------------
# Gate acceptance: every bad effects fixture fails a baselined gate
# ----------------------------------------------------------------------


def test_every_bad_effects_fixture_would_fail_the_gate(tmp_path, repo_root):
    baseline = Baseline.load(repo_root / "lint-baseline.json")
    for fixture in sorted(EFFECT_FIXTURES.glob("rep*_bad.py")):
        scratch = tmp_path / fixture.stem
        scratch.mkdir()
        result = analyze_fixture(scratch, fixture.name)
        partition = baseline.partition(result.findings)
        assert partition.new, (
            f"{fixture.name} produced no non-baselined effect finding — "
            "the gate would miss it"
        )
