"""Smoke tests: every shipped example must run to completion.

Examples are deliverables, not decoration — each one is executed as a
subprocess (fresh interpreter, as a user would run it) and its headline
output is checked.  Each runs from an empty directory, and must leave
it empty.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES_DIR = ROOT / "examples"

CASES = [
    ("quickstart.py", ["global reduction", "predictions vs actual"]),
    ("resource_selection.py", ["selected: replica at", "rank"]),
    ("cross_cluster_prediction.py", ["scaling factors", "EM on the Opteron"]),
    ("scientific_mining.py", ["planted vortices", "defect catalog"]),
    ("advanced_middleware.py", ["cluster-of-SMPs", "gather topology"]),
    ("grid_scheduling.py", ["policy comparison", "min-completion",
                            "round-robin"]),
    ("broker_workload.py", ["broker workload", "calibration win",
                            "deadline-aware"]),
    ("service_requests.py", ["breaker opens", "admission sheds",
                             "verdict: PASS"]),
    ("trace_workload.py", ["fingerprint", "parsed back exactly",
                           "queue pressure"]),
    ("broker_faults.py", ["resilience: goodput", "replay identical"]),
]


def run_example(cwd: pathlib.Path, name: str, *args: str) -> str:
    """``python examples/<name> args`` from ``cwd``; its stdout."""
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example {name}"
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, (
        f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


@pytest.mark.slow
@pytest.mark.parametrize("name, needles", CASES, ids=[c[0] for c in CASES])
def test_example_runs(tmp_path, name, needles):
    out = run_example(tmp_path, name)
    for needle in needles:
        assert needle in out, f"{name}: expected '{needle}' in output"
    assert not list(tmp_path.iterdir()), f"{name} left files behind"


@pytest.mark.slow
def test_reproduce_figure_cli_example(tmp_path):
    assert "fig09" in run_example(tmp_path, "reproduce_figure.py", "fig09", "--fast")
    assert "fig02" in run_example(tmp_path, "reproduce_figure.py", "--list")
    assert not list(tmp_path.iterdir()), "reproduce_figure.py left files behind"
