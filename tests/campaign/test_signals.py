"""SIGTERM a live campaign subprocess and resume it.

This is the end-to-end crash-safety check the in-process tests cannot
give: a *real* signal delivered to a *real* process mid-campaign, the
distinct resumable exit code, and a resume whose result artifacts are
byte-identical to an uninterrupted run's.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import EXIT_INTERRUPTED

#: Campaign driver executed as a subprocess.  Fake entries sleep so the
#: parent has time to deliver the signal mid-entry; the sleep happens
#: *before* the deterministic result is built, so artifacts do not
#: depend on timing.
DRIVER = """\
import pathlib, sys, time

from repro.campaign import CampaignEntry, CampaignManifest, CampaignRunner
from repro.workloads.experiments import ExperimentResult, ExperimentRow

IDS = ["fig02", "fig03", "fig04", "fig05"]
root = pathlib.Path(sys.argv[1])
sleep_s = float(sys.argv[2])
resume = "--resume" in sys.argv


def fake_result(entry_id):
    result = ExperimentResult(
        experiment_id=entry_id,
        title=f"Fake reproduction of {entry_id}",
        workload="kmeans",
    )
    result.metadata = {"base_profile": "1-1", "dataset_bytes": 1400.0}
    for i in range(3):
        result.rows.append(
            ExperimentRow(
                data_nodes=1,
                compute_nodes=2 ** i,
                model="global reduction",
                actual=1.0 + i,
                predicted=1.05 + i,
            )
        )
    return result


def make(entry_id):
    def run():
        time.sleep(sleep_s)
        return fake_result(entry_id)

    return run


manifest = CampaignManifest(
    name="signal-campaign",
    entries=tuple(CampaignEntry(entry_id=i) for i in IDS),
)
runner = CampaignRunner(
    manifest,
    root / "journal.json",
    registry={i: make(i) for i in IDS},
    results_dir=root / "results",
    check_claims=False,
    progress=lambda line: print(line, flush=True),
)
report = runner.run(resume=resume)
sys.exit(report.exit_code)
"""


def run_driver(root, sleep_s, *extra):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER, str(root), str(sleep_s), *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(proc):
    """``(exit code, stderr)`` of ``proc``, through ``communicate``: it
    drains and closes both pipes, so a child filling one cannot block
    and no pipe is left open."""
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def results_digest(results_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(results_dir.iterdir())
    }


@pytest.mark.slow
def test_sigterm_then_resume_is_byte_identical(tmp_path):
    # Reference: the same campaign, uninterrupted.
    code, err = finish(run_driver(tmp_path / "ref", 0.0))
    assert code == 0, err

    # Victim: slow entries; SIGTERM once the first entry has settled
    # (its progress line proves a journal commit happened).
    victim = run_driver(tmp_path / "victim", 0.4)
    first_line = victim.stdout.readline()
    assert "fig02 completed" in first_line
    victim.send_signal(signal.SIGTERM)
    assert finish(victim)[0] == EXIT_INTERRUPTED

    # The journal survived the kill and at least one entry is missing.
    journal = tmp_path / "victim" / "journal.json"
    assert journal.exists()
    done_before = set(results_digest(tmp_path / "victim" / "results"))
    assert "fig02.json" in done_before
    assert len(done_before) < 4

    # Resume finishes the rest; only unsettled entries re-run.
    resumed = run_driver(tmp_path / "victim", 0.0, "--resume")
    out, err = resumed.communicate(timeout=60)
    assert resumed.returncode == 0, err
    assert "fig02 resumed" in out

    assert results_digest(tmp_path / "victim" / "results") == results_digest(
        tmp_path / "ref" / "results"
    )


@pytest.mark.slow
def test_sigint_also_exits_resumable(tmp_path):
    victim = run_driver(tmp_path / "v", 0.4)
    assert "completed" in victim.stdout.readline()
    victim.send_signal(signal.SIGINT)
    assert finish(victim)[0] == EXIT_INTERRUPTED
    assert (tmp_path / "v" / "journal.json").exists()


@pytest.mark.slow
def test_sigkill_then_resume_is_byte_identical(tmp_path):
    code, err = finish(run_driver(tmp_path / "ref", 0.0))
    assert code == 0, err

    # No handler runs and nothing is flushed on the way out: whatever
    # the journal holds is what ``commit`` fsynced before returning.
    victim = run_driver(tmp_path / "victim", 0.4)
    assert "fig02 completed" in victim.stdout.readline()
    victim.kill()
    assert finish(victim)[0] == -signal.SIGKILL

    resumed = run_driver(tmp_path / "victim", 0.0, "--resume")
    out, err = resumed.communicate(timeout=60)
    assert resumed.returncode == 0, err
    assert "fig02 resumed" in out
    assert "fig05 completed" in out

    assert results_digest(tmp_path / "victim" / "results") == results_digest(
        tmp_path / "ref" / "results"
    )


def test_interrupt_between_commits_loses_at_most_one_entry(tmp_path):
    # SIGKILL — no handler, no cleanup: the hardest crash.  The journal
    # must still be a valid checkpoint of every settled entry.
    victim = run_driver(tmp_path / "v", 0.4)
    assert "fig02 completed" in victim.stdout.readline()
    victim.kill()
    finish(victim)

    from repro.campaign import CampaignJournal

    deadline = time.monotonic() + 10.0
    while not (tmp_path / "v" / "journal.json").exists():
        assert time.monotonic() < deadline
        time.sleep(0.05)
    records = CampaignJournal(tmp_path / "v" / "journal.json").load()
    assert "fig02" in records
    assert all(r.status == "completed" for r in records.values())
