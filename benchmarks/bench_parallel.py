"""Serial vs process-pool execution of the paper-figure campaign.

Runs the same fast paper-figure campaign twice — once on the serial
:class:`~repro.campaign.runner.CampaignRunner`, once on the
certificate-gated :class:`~repro.campaign.parallel.ParallelCampaignRunner`
with ``REPRO_PARALLEL_BENCH_WORKERS`` workers — and checks the
subsystem's headline claims:

- the process pool may only start because every campaign entry point is
  *proven* process-pool-safe by the effect analysis (the gate runs, and
  its cost is reported separately);
- the parallel journal and every per-entry result artifact are
  **byte-identical** to the serial run's (modulo the wall-clock
  ``elapsed_s`` journal fields, excluded as between any two serial
  runs);
- both runs exit clean.

The wall-clock headline lands in ``BENCH_parallel.json`` at the
repository root together with ``cpu_count`` — the speedup is bounded by
the cores the host actually has (a single-core CI box will honestly
report ~1x or below; the byte-identity claims hold regardless).

``REPRO_PARALLEL_BENCH_COUNT`` shrinks the campaign for CI smoke runs;
the full fast figure suite is the default.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.campaign import (
    CampaignRunner,
    ParallelCampaignRunner,
    paper_suite_manifest,
    verify_pool_safety,
)
from repro.core.durable import atomic_write_json, atomic_write_text
from repro.lint.effects import CERTIFIED_ROOTS
from repro.workloads.experiments import EXPERIMENTS

from benchmarks.conftest import RESULTS_DIR, run_once
from tests.campaign.conftest import journal_projection

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

COUNT = int(
    os.environ.get("REPRO_PARALLEL_BENCH_COUNT", str(len(EXPERIMENTS)))
)
WORKERS = int(os.environ.get("REPRO_PARALLEL_BENCH_WORKERS", "4"))


def run_campaigns(scratch: pathlib.Path) -> dict:
    manifest = paper_suite_manifest(
        fast=True, experiment_ids=sorted(EXPERIMENTS)[:COUNT]
    )

    t0 = time.perf_counter()
    proven = verify_pool_safety()
    certify_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = CampaignRunner(
        manifest,
        scratch / "serial.journal.json",
        results_dir=scratch / "serial",
    ).run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = ParallelCampaignRunner(
        manifest,
        scratch / "parallel.journal.json",
        workers=WORKERS,
        results_dir=scratch / "parallel",
    ).run()
    parallel_s = time.perf_counter() - t0

    assert serial.exit_code == 0, "serial campaign must exit clean"
    assert parallel.exit_code == 0, "parallel campaign must exit clean"

    identical = journal_projection(
        scratch / "serial.journal.json"
    ) == journal_projection(scratch / "parallel.journal.json")
    artifacts = sorted(p.name for p in (scratch / "serial").iterdir())
    identical = identical and artifacts == sorted(
        p.name for p in (scratch / "parallel").iterdir()
    )
    for name in artifacts:
        identical = identical and (
            (scratch / "serial" / name).read_bytes()
            == (scratch / "parallel" / name).read_bytes()
        )

    return {
        "kind": "bench-parallel",
        "campaign": manifest.name,
        "entries": len(manifest.entries),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "certified_entry_points": len(proven),
        "certify_s": round(certify_s, 3),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        "byte_identical": identical,
    }


def format_parallel(doc: dict) -> str:
    lines = [
        f"parallel campaign bench — {doc['entries']} entries, "
        f"{doc['workers']} workers on {doc['cpu_count']} cpu(s)",
        f"  certificate gate   {doc['certify_s']:8.3f}s "
        f"({doc['certified_entry_points']} entry points proven)",
        f"  serial             {doc['serial_s']:8.3f}s",
        f"  parallel           {doc['parallel_s']:8.3f}s "
        f"({doc['speedup']:.2f}x)",
        f"  byte-identical     {doc['byte_identical']}",
    ]
    return "\n".join(lines)


def test_parallel_campaign_speedup_and_identity(benchmark, tmp_path):
    doc = run_once(benchmark, lambda: run_campaigns(tmp_path))

    text = format_parallel(doc)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(RESULTS_DIR / "parallel.txt", text + "\n")
    atomic_write_json(REPO_ROOT / "BENCH_parallel.json", doc)

    # The non-negotiable claim: parallel output is the serial output.
    assert doc["byte_identical"], (
        "parallel campaign produced different bytes than the serial run"
    )
    # Every submitted entry point carried a proof.
    assert doc["certified_entry_points"] >= len(CERTIFIED_ROOTS)
    # The gate is a bounded startup cost, not a per-entry tax.
    assert doc["certify_s"] < doc["serial_s"] + doc["parallel_s"]
