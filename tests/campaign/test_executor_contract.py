"""The executor contract both campaign runners keep.

``CampaignRunner`` calls ``execute_entry`` inline; ``ParallelCampaignRunner``
calls it in worker processes and feeds the same settle loop.  Everything
here must hold for both, so every test runs against both — with
module-level fake drivers (see conftest), since registry callables
cross the process boundary by pickle reference.
"""

import functools

import pytest

from repro.campaign import (
    EXIT_OK,
    EXIT_PROBLEMS,
    CampaignRunner,
    ParallelCampaignRunner,
)
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

pytestmark = pytest.mark.parametrize("kind", ["serial", "pool"])


def make_runner(kind, manifest, journal, **kwargs):
    kwargs.setdefault("check_claims", False)
    if kind == "serial":
        return CampaignRunner(manifest, journal, **kwargs)
    return ParallelCampaignRunner(
        manifest, journal, workers=2, **kwargs
    )


def test_fresh_run_refuses_existing_journal(kind, tmp_path):
    ids = FAKE_IDS[:2]
    runner = make_runner(
        kind,
        make_manifest(ids),
        tmp_path / "journal.json",
        registry=picklable_registry(ids),
    )
    runner.run()
    with pytest.raises(CampaignError, match="already exists"):
        runner.run()


def test_timeout_is_classified_and_campaign_continues(kind, tmp_path):
    ids = FAKE_IDS[:3]
    manifest = make_manifest(ids, deadline_s=0.15)
    registry = picklable_registry(ids)
    registry[ids[1]] = functools.partial(slow_driver, ids[1], 10.0)
    journal = tmp_path / "journal.json"
    report = make_runner(kind, manifest, journal, registry=registry).run()
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
        kind, manifest, journal, registry=picklable_registry(ids, boom_driver)
    ).run(resume=True)
    assert [o.status for o in resumed.outcomes] == [
        "resumed", "timed-out", "resumed",
    ]


def test_retry_after_timeout_is_classified_retried(kind, tmp_path):
    manifest = make_manifest(["fig02"], deadline_s=0.15)
    seams = {}
    slept = []
    if kind == "serial":
        # The backoff sleep seam is an in-process callable.
        seams["sleep"] = slept.append
    report = make_runner(
        kind,
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
        **seams,
    ).run()
    outcome = report.outcome("fig02")
    assert outcome.status == "retried"
    assert outcome.attempts == 2
    assert outcome.result is not None
    assert report.ok
    if kind == "serial":
        # Real backoff with RetryPolicy semantics: one sleep, base delay.
        assert slept == [0.25]


def test_resume_restores_entries_without_rerunning(kind, tmp_path):
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
        kind, manifest, journal, registry=picklable_registry(ids, boom_driver)
    ).run(resume=True)
    assert [o.status for o in report.outcomes] == ["resumed"] * len(ids)
    assert report.exit_code == EXIT_OK


def test_registry_exception_propagates(kind, tmp_path):
    ids = FAKE_IDS[:3]
    registry = picklable_registry(ids)
    registry[ids[1]] = functools.partial(boom_driver, ids[1])
    journal = tmp_path / "journal.json"
    runner = make_runner(kind, make_manifest(ids), journal, registry=registry)
    with pytest.raises(RuntimeError, match="must not run"):
        runner.run()
    # Like a process dying mid-entry: what settled before is durable.
    journaled = journal_projection(journal)["entries"]
    assert [e["entry_id"] for e in journaled] == [ids[0]]
