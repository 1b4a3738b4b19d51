"""``repro lint`` runs with CPython's cyclic collector paused.

The pause is worth having only while a run makes next to no cyclic
garbage, and harmless only if the caller gets its collector back as it
was, after a clean return and after an error alike.
"""

from __future__ import annotations

import argparse
import gc
import shutil

import pytest

from repro.lint import cli
from repro.lint.errors import LintError

#: Unreachable objects one run may leave behind.  Measured: 32 over
#: ``src/repro/lint``, cold or warm, all from the report's one indented
#: JSON encode (the pure-Python encoder's closures form cycles).  A cold
#: run writing its four caches indented leaves 192.
MAX_UNREACHABLE = 100


@pytest.fixture
def collector():
    """Whatever a test does to the collector, the suite gets it back."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def parse(argv):
    parser = argparse.ArgumentParser()
    cli.register_lint(parser)
    return parser.parse_args(argv)


def test_cold_and_warm_runs_leave_next_to_no_cyclic_garbage(
    repo_root, tmp_path, capsys, collector
):
    shutil.copytree(repo_root / "src" / "repro" / "lint", tmp_path / "lint")
    args = parse(
        [str(tmp_path / "lint"), "--root", str(tmp_path), "--flow",
         "--effects", "--perf", "--format", "json"]
    )
    left = []
    for _temperature in ("cold", "warm"):
        gc.collect()
        gc.disable()  # nothing collects between the run and the count
        assert cli.run_lint_command(args) == 0
        left.append(gc.collect())
        gc.enable()
    assert capsys.readouterr().out.count('"files_scanned"') == 2
    assert max(left) <= MAX_UNREACHABLE, left


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_the_callers_collector_state_is_restored(
    enabled, raises, fixtures_dir, tmp_path, monkeypatch, capsys, collector
):
    seen = []
    select = cli._selected_rules

    def spy(codes):
        seen.append(gc.isenabled())
        if raises:
            raise LintError("refused")
        return select(codes)

    monkeypatch.setattr(cli, "_selected_rules", spy)
    shutil.copy(fixtures_dir / "rep003_bad.py", tmp_path)
    args = parse([str(tmp_path), "--root", str(tmp_path), "--select", "REP003"])
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if raises:
        with pytest.raises(LintError, match="refused"):
            cli.run_lint_command(args)
    else:
        assert cli.run_lint_command(args) == 1
        assert "REP003" in capsys.readouterr().out
    assert seen == [False]
    assert gc.isenabled() is enabled
