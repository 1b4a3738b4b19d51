"""Smoke test of the benchmark itself; not part of tier-1.

Run explicitly: ``python -m pytest bench/``.  Runs every workload at
``--smoke`` size, untraced and traced, and checks that what comes out is
what ``BENCHMARK.json`` promises.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_the_declared_metrics(trace, tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--all", "--smoke",
         "--seed", "7", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in SPEC["workloads"]]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for run in runs:
        assert run["correct"], run["problems"]
        assert sorted(run["metrics"]) == sorted(m["name"] for m in declared)
        for spec in declared:
            metric = run["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"])
        if not trace:
            assert all(m["value"] > 0 for m in run["metrics"].values())
        assert run["environment"]["cpu_count"] >= 1
