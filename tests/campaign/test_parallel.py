"""What is specific to the process-pool record source.

``ParallelCampaignRunner`` produces journals, result artifacts, and
reports *byte-identical* to the serial ``CampaignRunner`` (modulo the
wall-clock ``elapsed_s`` fields, which differ between any two runs),
runs without the lint layer, and on interrupt drains running entries
while skipping pending ones.  The effect analysis proves the real entry
points process-pool-safe here, not when a pool starts.  The behaviour
both runners share is in ``test_executor_contract.py``.
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignRunner,
    ParallelCampaignRunner,
    paper_suite_manifest,
)
from repro.errors import CampaignError
from repro.workloads.experiments import EXPERIMENTS

from .conftest import (
    FAKE_IDS,
    fake_result,
    journal_projection,
    make_manifest,
    picklable_registry,
)


def _rendezvous_driver(entry_id: str, dirpath: str):
    """Signal the test that work started, then block until released."""
    directory = pathlib.Path(dirpath)
    (directory / f"{entry_id}.started").write_text(entry_id)
    while not (directory / "go").exists():
        time.sleep(0.01)
    return fake_result(entry_id)


# ----------------------------------------------------------------------
# Byte-identity with the serial runner
# ----------------------------------------------------------------------


def run_both(tmp_path, ids, workers=2):
    manifest = make_manifest(ids)
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = CampaignRunner(
        manifest,
        tmp_path / "serial.journal.json",
        registry=picklable_registry(ids),
        results_dir=serial_dir,
        check_claims=False,
    ).run()
    parallel = ParallelCampaignRunner(
        manifest,
        tmp_path / "parallel.journal.json",
        workers=workers,
        registry=picklable_registry(ids),
        results_dir=parallel_dir,
        check_claims=False,
    ).run()
    return serial, parallel, serial_dir, parallel_dir


def assert_identical(tmp_path, serial, parallel, serial_dir, parallel_dir):
    assert journal_projection(
        tmp_path / "serial.journal.json"
    ) == journal_projection(tmp_path / "parallel.journal.json")
    serial_artifacts = sorted(p.name for p in serial_dir.iterdir())
    parallel_artifacts = sorted(p.name for p in parallel_dir.iterdir())
    assert serial_artifacts == parallel_artifacts
    for name in serial_artifacts:
        assert (serial_dir / name).read_bytes() == (
            parallel_dir / name
        ).read_bytes(), f"artifact '{name}' differs between serial and pool"
    assert [o.status for o in serial.outcomes] == [
        o.status for o in parallel.outcomes
    ]
    assert [o.entry_id for o in serial.outcomes] == [
        o.entry_id for o in parallel.outcomes
    ]
    assert serial.exit_code == parallel.exit_code


def test_parallel_matches_serial_byte_for_byte(tmp_path):
    serial, parallel, serial_dir, parallel_dir = run_both(
        tmp_path, FAKE_IDS, workers=3
    )
    assert parallel.ok
    assert_identical(tmp_path, serial, parallel, serial_dir, parallel_dir)


def test_certified_pool_matches_serial_on_real_figures(tmp_path):
    """The default gate proves the real entry points, then the pool's
    journal and figure artifacts are the serial runner's bytes."""
    manifest = paper_suite_manifest(
        fast=True, experiment_ids=sorted(EXPERIMENTS)[:2]
    )
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = CampaignRunner(
        manifest, tmp_path / "serial.journal.json", results_dir=serial_dir
    ).run()
    parallel = ParallelCampaignRunner(
        manifest,
        tmp_path / "parallel.journal.json",
        workers=2,
        results_dir=parallel_dir,
    ).run()
    assert serial.exit_code == 0
    assert len(list(serial_dir.iterdir())) == len(manifest.entries)
    assert_identical(tmp_path, serial, parallel, serial_dir, parallel_dir)


@settings(max_examples=6, deadline=None)
@given(
    ids=st.lists(
        st.sampled_from(FAKE_IDS), min_size=1, max_size=len(FAKE_IDS),
        unique=True,
    ),
    workers=st.integers(min_value=1, max_value=4),
)
def test_parallel_is_byte_identical_for_any_manifest(
    tmp_path_factory, ids, workers
):
    """Property: any manifest subset, any worker count — same bytes."""
    tmp_path = tmp_path_factory.mktemp("parallel-property")
    serial, parallel, serial_dir, parallel_dir = run_both(
        tmp_path, ids, workers=workers
    )
    assert_identical(tmp_path, serial, parallel, serial_dir, parallel_dir)


# ----------------------------------------------------------------------
# Interruption: drain the running worker, skip the pending queue
# ----------------------------------------------------------------------


def test_interrupt_drains_running_entry_and_skips_pending(tmp_path):
    # workers=1 gives a submission window of 2: when the interrupt
    # lands while entry 0 is executing, entry 1 is submitted (and may
    # be uncancellable in the pool's call queue — drained either way),
    # and entries 2..3 were never submitted, so they *must* be skipped.
    ids = FAKE_IDS[:4]
    manifest = make_manifest(ids)
    rendezvous = tmp_path / "rendezvous"
    rendezvous.mkdir()
    registry = picklable_registry(ids, _rendezvous_driver, str(rendezvous))
    runner = ParallelCampaignRunner(
        manifest,
        tmp_path / "journal.json",
        workers=1,  # one worker => entries 2..n are still queued
        registry=registry,
        check_claims=False,
        handle_signals=False,
    )

    def interrupt_once_started():
        deadline = time.monotonic() + 30.0
        while not (rendezvous / f"{ids[0]}.started").exists():
            if time.monotonic() > deadline:  # pragma: no cover
                break
            time.sleep(0.01)
        runner._stop.set()
        (rendezvous / "go").write_text("go")

    thread = threading.Thread(target=interrupt_once_started)
    thread.start()
    report = runner.run()
    thread.join()

    assert report.interrupted
    assert report.exit_code == 75
    statuses = [o.status for o in report.outcomes]
    assert statuses[0] == "completed"  # drained, not discarded
    # Entry 1 was in the submission window: drained if the pool's
    # queue-feeder got to it first, cleanly cancelled otherwise.
    assert statuses[1] in ("completed", "skipped")
    assert statuses[2:] == ["skipped"] * (len(ids) - 2)

    journaled = {
        e["entry_id"]
        for e in journal_projection(tmp_path / "journal.json")["entries"]
    }
    expected = {ids[0]} | (
        {ids[1]} if statuses[1] == "completed" else set()
    )
    assert journaled == expected

    # Resume finishes the skipped tail and converges on the same journal
    # a never-interrupted run would have produced.
    (rendezvous / "go").write_text("go")  # keep the gate open
    resumed = ParallelCampaignRunner(
        manifest,
        tmp_path / "journal.json",
        workers=2,
        registry=registry,
        check_claims=False,
    ).run(resume=True)
    resumed_statuses = [o.status for o in resumed.outcomes]
    assert resumed_statuses[0] == "resumed"
    assert set(resumed_statuses[1:]) <= {"resumed", "completed"}

    uninterrupted = tmp_path / "uninterrupted.journal.json"
    CampaignRunner(
        manifest,
        uninterrupted,
        registry=picklable_registry(ids),
        check_claims=False,
    ).run()
    assert journal_projection(
        tmp_path / "journal.json"
    ) == journal_projection(uninterrupted)


# ----------------------------------------------------------------------
# Pool safety: proved over the source, not at start-up
# ----------------------------------------------------------------------


def test_gate_proves_the_real_entry_points(tmp_path):
    """Every certified root analyzes ``process-pool-safe`` or better."""
    import repro
    from repro.lint.effects import (
        CERTIFIED_ROOTS,
        TIER_POOL_SAFE,
        TIER_RANK,
        analyze_effects,
    )

    package_dir = pathlib.Path(repro.__file__).resolve().parent
    analysis = analyze_effects(
        [package_dir],
        root=package_dir.parent,
        cache_path=tmp_path / "effects-cache.json",
    ).analysis
    floor = TIER_RANK[TIER_POOL_SAFE]
    for qualname in CERTIFIED_ROOTS:
        tier = analysis.tiers.get(qualname)
        assert tier is not None, f"{qualname}: not found by the analysis"
        assert TIER_RANK[tier] >= floor, (
            f"{qualname} analyzes as '{tier}' "
            f"(effects: {analysis.effect_words(qualname)})"
        )


def test_pool_runs_without_the_lint_layer(tmp_path, monkeypatch):
    """A pool starts and settles with ``repro.lint`` unimportable."""
    for name in [m for m in sys.modules if m.startswith("repro.lint")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "repro.lint", None)
    serial, parallel, serial_dir, parallel_dir = run_both(
        tmp_path, FAKE_IDS[:2]
    )
    assert parallel.ok
    assert_identical(tmp_path, serial, parallel, serial_dir, parallel_dir)


def test_workers_must_be_positive(tmp_path):
    with pytest.raises(CampaignError, match="workers"):
        ParallelCampaignRunner(
            make_manifest(FAKE_IDS[:2]),
            tmp_path / "journal.json",
            workers=0,
        )
