"""The executor contract ``CampaignRunner`` keeps.

The runner calls ``execute_entry`` on each entry's driver and settles
the records in manifest order: a journal is never clobbered, a timeout
is classified and retried without stopping the campaign, a resume runs
nothing already settled, and a driver's exception leaves what settled
before it durable.  The fake drivers come from conftest.
"""

import functools

import pytest

from repro.campaign import EXIT_OK, EXIT_PROBLEMS, CampaignRunner
from repro.errors import CampaignError
from repro.faults import RetryPolicy

from .conftest import (
    FAKE_IDS,
    boom_driver,
    hang_once_driver,
    journal_projection,
    make_manifest,
    picklable_registry,
    slow_driver,
)


def make_runner(manifest, journal, **kwargs):
    kwargs.setdefault("check_claims", False)
    return CampaignRunner(manifest, journal, **kwargs)


def test_fresh_run_refuses_existing_journal(tmp_path):
    ids = FAKE_IDS[:2]
    runner = make_runner(
        make_manifest(ids),
        tmp_path / "journal.json",
        registry=picklable_registry(ids),
    )
    runner.run()
    with pytest.raises(CampaignError, match="already exists"):
        runner.run()


def test_timeout_is_classified_and_campaign_continues(tmp_path):
    ids = FAKE_IDS[:3]
    manifest = make_manifest(ids, deadline_s=0.15)
    registry = picklable_registry(ids)
    registry[ids[1]] = functools.partial(slow_driver, ids[1], 10.0)
    journal = tmp_path / "journal.json"
    report = make_runner(manifest, journal, registry=registry).run()
    timed_out = report.outcome(ids[1])
    assert timed_out.status == "timed-out"
    assert timed_out.attempts == 2  # WATCHDOG_RETRY_POLICY default
    assert timed_out.result is None
    assert any("deadline" in v for v in timed_out.violations)
    # The rest of the campaign still ran.
    assert report.outcome(ids[0]).status == "completed"
    assert report.outcome(ids[2]).status == "completed"
    assert not report.ok
    assert report.exit_code == EXIT_PROBLEMS
    journaled = journal_projection(journal)["entries"]
    assert [e["payload"] is None for e in journaled] == [False, True, False]
    # The timed-out classification is durable: a resume restores it
    # without re-running the hung entry.
    resumed = make_runner(
        manifest, journal, registry=picklable_registry(ids, boom_driver)
    ).run(resume=True)
    assert [o.status for o in resumed.outcomes] == [
        "resumed", "timed-out", "resumed",
    ]


def test_retry_after_timeout_is_classified_retried(tmp_path):
    manifest = make_manifest(["fig02"], deadline_s=0.15)
    slept = []
    report = make_runner(
        manifest,
        tmp_path / "journal.json",
        registry=picklable_registry(
            ["fig02"], hang_once_driver, str(tmp_path / "hung-once")
        ),
        retry_policy=RetryPolicy(
            max_attempts=3,
            base_backoff_s=0.25,
            backoff_factor=2.0,
            max_backoff_s=10.0,
        ),
        sleep=slept.append,
    ).run()
    outcome = report.outcome("fig02")
    assert outcome.status == "retried"
    assert outcome.attempts == 2
    assert outcome.result is not None
    assert report.ok
    # Real backoff with RetryPolicy semantics: one sleep, base delay.
    assert slept == [0.25]


def test_resume_restores_entries_without_rerunning(tmp_path):
    ids = FAKE_IDS[:4]
    manifest = make_manifest(ids)
    journal = tmp_path / "journal.json"
    CampaignRunner(
        manifest,
        journal,
        registry=picklable_registry(ids),
        check_claims=False,
    ).run()
    # Every entry is settled; a resumed run must invoke nothing (the
    # registry would raise if any entry actually ran).
    report = make_runner(
        manifest, journal, registry=picklable_registry(ids, boom_driver)
    ).run(resume=True)
    assert [o.status for o in report.outcomes] == ["resumed"] * len(ids)
    assert report.exit_code == EXIT_OK


def test_registry_exception_propagates(tmp_path):
    ids = FAKE_IDS[:3]
    registry = picklable_registry(ids)
    registry[ids[1]] = functools.partial(boom_driver, ids[1])
    journal = tmp_path / "journal.json"
    runner = make_runner(make_manifest(ids), journal, registry=registry)
    with pytest.raises(RuntimeError, match="must not run"):
        runner.run()
    # Like a process dying mid-entry: what settled before is durable.
    journaled = journal_projection(journal)["entries"]
    assert [e["entry_id"] for e in journaled] == [ids[0]]
