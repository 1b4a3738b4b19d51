"""The ``repro lint`` subcommand and ``python -m repro.lint`` entry."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main


def test_repro_lint_gate_passes_on_the_shipped_tree(repo_root):
    code = repro_main(
        [
            "lint",
            str(repo_root / "src" / "repro"),
            "--baseline",
            str(repo_root / "lint-baseline.json"),
            "--root",
            str(repo_root),
        ]
    )
    assert code == 0


#: Runs in a child: first checks what the entry points import on their
#: own, then makes the numeric stack unimportable and runs the whole gate
#: through both entry points.  Prints one JSON object.
_NO_NUMERIC_STACK = """
import contextlib, io, json, runpy, sys

NUMERIC = ("numpy", "scipy", "networkx")
import repro.cli
import repro.core.durable
loaded = sorted(m for m in sys.modules if m.split(".")[0] in NUMERIC)
sys.modules.update(dict.fromkeys(NUMERIC))  # import numpy -> ImportError

argv = [sys.argv[1], "--root", sys.argv[1], "--flow", "--effects",
        "--perf", "--format", "json"]
runs = {}
for entry in ("repro lint", "python -m repro.lint"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if entry == "repro lint":
            code = repro.cli.main(["lint"] + argv)
        else:
            sys.argv = ["repro-lint"] + argv
            try:
                runpy.run_module("repro.lint", run_name="__main__")
            except SystemExit as exc:
                code = exc.code
    runs[entry] = {"exit": code, "report": json.loads(out.getvalue())}
print(json.dumps({"loaded": loaded, "runs": runs}, sort_keys=True))
"""


def test_the_gate_runs_without_the_numeric_stack(tmp_path, fixtures_dir):
    """``lint/cli.py``'s docstring promise, checked on ``sys.modules``:
    importing the CLI or the durable layer loads none of numpy, scipy,
    networkx, and a full four-family run works with all three blocked."""
    tree = tmp_path / "tree"
    shutil.copytree(fixtures_dir / "flow" / "rep101_bad", tree)
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMERIC_STACK, str(tree)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded"] == []
    full, standalone = (
        result["runs"][entry] for entry in ("repro lint", "python -m repro.lint")
    )
    assert full["exit"] == standalone["exit"] == 1
    assert full["report"] == standalone["report"]
    assert {f["code"] for f in full["report"]["findings"]} == {"REP101"}


def test_bad_file_fails_with_text_findings(tmp_path, fixtures_dir, capsys):
    target = tmp_path / "bad.py"
    shutil.copy(fixtures_dir / "rep005_bad.py", target)
    code = lint_main([str(target), "--root", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REP005" in out
    assert "2 new finding(s)" in out


def test_json_format_is_machine_readable(tmp_path, fixtures_dir, capsys):
    target = tmp_path / "bad.py"
    shutil.copy(fixtures_dir / "rep003_bad.py", target)
    code = lint_main(
        [str(target), "--root", str(tmp_path), "--format", "json"]
    )
    assert code == 1
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["summary"]["new"] == 2
    assert {f["code"] for f in parsed["findings"]} == {"REP003"}


def test_github_format_emits_error_annotations(
    tmp_path, fixtures_dir, capsys
):
    target = tmp_path / "bad.py"
    shutil.copy(fixtures_dir / "rep001_bad.py", target)
    code = lint_main(
        [str(target), "--root", str(tmp_path), "--format", "github"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("::error file=bad.py") == 3
    assert "::notice title=repro.lint" in out


def test_write_baseline_then_gate_passes(tmp_path, fixtures_dir, capsys):
    target = tmp_path / "bad.py"
    shutil.copy(fixtures_dir / "rep006_bad.py", target)
    baseline = tmp_path / "baseline.json"
    assert (
        lint_main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
            ]
        )
        == 0
    )
    assert baseline.exists()
    assert (
        lint_main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        == 0
    )


def test_fix_flag_round_trip(tmp_path, fixtures_dir, capsys):
    target = tmp_path / "bad.py"
    shutil.copy(fixtures_dir / "rep003_bad.py", target)
    first = lint_main([str(target), "--root", str(tmp_path), "--fix"])
    # the sort_keys=False finding remains (not auto-rewritable)
    assert first == 1
    assert "1 fixed" in capsys.readouterr().out
    assert "sort_keys=True" in target.read_text()


def test_write_baseline_requires_baseline_path(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    code = lint_main(
        [str(tmp_path / "ok.py"), "--root", str(tmp_path),
         "--write-baseline"]
    )
    assert code == 2
    assert "requires --baseline" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    code = lint_main([str(tmp_path / "missing.py")])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_select_scopes_the_rule_set(tmp_path, fixtures_dir, capsys):
    target = tmp_path / "bad.py"
    shutil.copy(fixtures_dir / "rep001_bad.py", target)
    # REP001 fires unscoped, but a REP003/REP004-only run ignores it.
    assert lint_main([str(target), "--root", str(tmp_path)]) == 1
    capsys.readouterr()
    assert (
        lint_main(
            [str(target), "--root", str(tmp_path), "--select",
             "REP003,REP004"]
        )
        == 0
    )


def test_select_rejects_unknown_codes(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    code = lint_main(
        [str(tmp_path / "ok.py"), "--root", str(tmp_path), "--select",
         "REP999"]
    )
    assert code == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_list_rules_prints_the_table(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in [f"REP00{i}" for i in range(1, 9)]:
        assert code in out
    assert "allowlist" in out
    assert "(autofix)" in out


def test_clean_file_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert lint_main([str(tmp_path / "ok.py"), "--root",
                      str(tmp_path)]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Whole-program (flow) integration
# ---------------------------------------------------------------------------


def _flow_tree(case, tmp_path):
    import pathlib

    src = pathlib.Path(__file__).parent / "fixtures" / "flow" / case
    dest = tmp_path / case
    shutil.copytree(src, dest)
    return dest


def test_flow_defaults_on_for_directory_runs(tmp_path, capsys):
    tree = _flow_tree("rep101_bad", tmp_path)
    code = lint_main([str(tree / "src"), "--root", str(tree)])
    assert code == 1
    assert "REP101" in capsys.readouterr().out


def test_no_flow_suppresses_whole_program_findings(tmp_path, capsys):
    tree = _flow_tree("rep101_bad", tmp_path)
    code = lint_main(
        [str(tree / "src"), "--root", str(tree), "--no-flow"]
    )
    assert code == 0


def test_select_flow_code_forces_flow_and_scopes_output(
    tmp_path, capsys
):
    tree = _flow_tree("rep104_bad", tmp_path)
    code = lint_main(
        [str(tree / "src"), "--root", str(tree), "--select", "REP104"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "REP104" in out
    assert "dimensional inconsistency" in out


def test_flow_findings_render_as_github_annotations(tmp_path, capsys):
    tree = _flow_tree("rep102_bad", tmp_path)
    code = lint_main(
        [str(tree / "src"), "--root", str(tree), "--format", "github"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=src/repro/middleware/emit.py" in out
    assert "REP102" in out


def test_flow_baseline_suppresses_known_findings(tmp_path, capsys):
    tree = _flow_tree("rep101_bad", tmp_path)
    baseline = tree / "baseline.json"
    assert (
        lint_main(
            [str(tree / "src"), "--root", str(tree), "--baseline",
             str(baseline), "--write-baseline"]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        lint_main(
            [str(tree / "src"), "--root", str(tree), "--baseline",
             str(baseline)]
        )
        == 0
    )


def test_list_rules_includes_flow_family(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("REP101", "REP102", "REP103", "REP104"):
        assert code in out
    assert "(flow)" in out


def test_changed_outside_git_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.py").write_text("x = 1\n")
    code = lint_main(["--changed", str(tmp_path)])
    assert code == 2
    assert "--changed" in capsys.readouterr().err


def test_changed_in_fresh_repo_lints_only_changed_files(
    tmp_path, capsys, monkeypatch
):
    import subprocess

    monkeypatch.chdir(tmp_path)
    subprocess.run(["git", "init", "-q"], check=True)
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t",
         "commit", "-q", "--allow-empty", "-m", "seed"],
        check=True,
    )
    (tmp_path / "clean.py").write_text("x = 1\n")
    (tmp_path / "bad.py").write_text(
        "import json\n\n\n"
        "def dump(x):\n"
        "    return json.dumps(x)\n"
    )
    code = lint_main(["--changed", str(tmp_path), "--root",
                      str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REP003" in out
    assert "2 file(s) scanned" in out


# ----------------------------------------------------------------------
# Exit-code contract: 0 = clean, 1 = findings, 2 = usage/internal error
# ----------------------------------------------------------------------


class TestExitCodeContract:
    """``repro lint`` promises 0/1/2 across every report format."""

    CLEAN = "def f(x):\n    return x + 1\n"

    @pytest.fixture
    def clean_file(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        return target

    @pytest.fixture
    def bad_file(self, tmp_path, fixtures_dir):
        target = tmp_path / "bad.py"
        shutil.copy(fixtures_dir / "rep003_bad.py", target)
        return target

    @pytest.mark.parametrize("fmt", ["text", "json", "github"])
    def test_clean_exits_zero(self, clean_file, tmp_path, fmt, capsys):
        code = repro_main(
            ["lint", str(clean_file), "--format", fmt,
             "--root", str(tmp_path)]
        )
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["text", "json", "github"])
    def test_findings_exit_one(self, bad_file, tmp_path, fmt, capsys):
        code = repro_main(
            ["lint", str(bad_file), "--format", fmt,
             "--root", str(tmp_path)]
        )
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["text", "json", "github"])
    def test_usage_error_exits_two(self, clean_file, tmp_path, fmt, capsys):
        code = repro_main(
            ["lint", str(clean_file), "--format", fmt,
             "--select", "REP999", "--root", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = repro_main(["lint", str(tmp_path / "absent.py")])
        assert code == 2
        capsys.readouterr()

    def test_corrupt_baseline_exits_two(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{torn write")
        code = repro_main(
            ["lint", str(bad_file), "--baseline", str(baseline),
             "--root", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_certificate_exits_two(
        self, clean_file, tmp_path, capsys
    ):
        certificate = tmp_path / "cert.json"
        certificate.write_text("{torn write")
        code = repro_main(
            ["lint", str(clean_file), "--effects",
             "--certificate", str(certificate), "--root", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "regenerate" in err
