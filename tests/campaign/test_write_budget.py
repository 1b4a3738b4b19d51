"""What a campaign writes, and which of it is durable.

The journal is the campaign's only durable write: after its header (one
file and one directory ``fsync``) every settled entry is one line
appended through a handle held for the whole run, with one ``fsync``.
Result artifacts are written atomically but never synced; a resumed run
rebuilds any an OS crash lost from the journal.
"""

import builtins
import json
import pathlib

import pytest

import repro.core.durable as durable
from repro.analysis.results_io import result_from_dict
from repro.campaign import CampaignJournal, CampaignRunner, manifest_from_dict
from repro.campaign import runner as runner_module

from tests.campaign.conftest import FAKE_IDS, make_manifest
from tests.campaign.test_journal import GOLDENS, journal_with, record
from tests.campaign.test_runner import results_digest, run_campaign
from tests.conftest import results_equal


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``fsync`` the durable layer makes, as a list of fds."""
    calls = []
    real = durable.os.fsync

    def counted(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(durable.os, "fsync", counted)
    return calls


@pytest.fixture
def appends(monkeypatch):
    """The file objects the durable layer opens for appending."""
    handles = []

    def counted(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if "a" in mode:
            handles.append(handle)
        return handle

    monkeypatch.setattr(durable, "open", counted, raising=False)
    return handles


class TestWriteBudget:
    def test_one_fsync_per_entry_after_the_header(self, tmp_path, fsyncs):
        report = run_campaign(tmp_path, "budget").run()
        assert report.ok
        assert len(results_digest(tmp_path / "budget/results")) == len(FAKE_IDS)
        # The header's file and directory syncs, then one per commit:
        # the artifacts are not synced.
        assert len(fsyncs) == len(FAKE_IDS) + 2

    def test_the_journal_is_opened_for_appending_once_per_run(
        self, tmp_path, appends
    ):
        with pytest.raises(RuntimeError, match="injected crash"):
            run_campaign(tmp_path, "crash", crash_at=3).run()
        assert [pathlib.Path(h.name).name for h in appends] == ["journal.json"]
        assert all(h.closed for h in appends)  # closed by run()'s finally

        report = run_campaign(tmp_path, "crash").run(resume=True)
        assert report.ok
        assert len(appends) == 2
        assert all(h.closed for h in appends)
        assert list(CampaignJournal(tmp_path / "crash/journal.json").load()) == (
            FAKE_IDS
        )


class TestAppendAfterRewrite:
    """A rewrite replaces the journal's inode, so the append handle must
    be opened after it: commits through a handle on the old inode would
    be lost from the file the next load reads."""

    def test_two_commits_after_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.json"
        journal_with(path, FAKE_IDS[:2]).close()
        path.write_bytes(path.read_bytes() + b'{"entry_id":"fig0')
        journal = CampaignJournal(path)
        journal.load()
        journal.commit(record("fig04"))
        journal.commit(record("fig05"))
        journal.close()
        assert list(CampaignJournal(path).load()) == FAKE_IDS[:4]

    def test_two_commits_after_a_format_2_upgrade(self, tmp_path):
        manifest = make_manifest()
        path = tmp_path / "journal.json"
        path.write_bytes((GOLDENS / "journal_v2.jsonl").read_bytes())
        journal = CampaignJournal(path)
        journal.load(
            expected_fingerprint=manifest.fingerprint(),
            legacy_fingerprint=manifest.fingerprint(legacy=True),
        )
        journal.commit(record("fig04"))
        journal.commit(record("fig05"))
        journal.close()
        reloaded = CampaignJournal(path).load(
            expected_fingerprint=manifest.fingerprint()
        )
        assert list(reloaded) == FAKE_IDS[:4]

    def test_a_refused_append_is_not_written_twice(self, tmp_path, monkeypatch):
        path = tmp_path / "j.json"
        journal = journal_with(path, ["fig02"])

        def explode(_fd):
            raise OSError("disk pulled mid-fsync")

        monkeypatch.setattr(durable.os, "fsync", explode)
        with pytest.raises(OSError, match="mid-fsync"):
            journal.commit(record("fig03"))
        monkeypatch.undo()
        # The refused line reached the file; the retry rewrites the
        # journal without it instead of appending a duplicate.
        journal.commit(record("fig03"))
        journal.close()
        assert list(CampaignJournal(path).load()) == ["fig02", "fig03"]


class TestArtifactsAreRebuilt:
    def test_resume_restores_a_zeroed_and_a_deleted_artifact(self, tmp_path):
        assert run_campaign(tmp_path, "run").run().ok
        results = tmp_path / "run/results"
        written = results_digest(results)
        (results / "fig03.json").write_bytes(b"")
        (results / "fig05.json").unlink()
        report = run_campaign(tmp_path, "run").run(resume=True)
        assert [o.status for o in report.outcomes] == ["resumed"] * len(FAKE_IDS)
        assert results_digest(results) == written


class TestFreshResults:
    MANIFEST = {
        "name": "fresh-results",
        "entries": [
            {"id": "fig04", "fast": True},
            {"id": "fig09", "fast": True},
            {
                "id": "defect-faults",
                "kind": "fault-scenario",
                "workload": "defect",
                "fast": True,
                "scenario": {
                    "seed": 7,
                    "faults": [{"type": "chunk-read-error", "rate": 0.05}],
                },
            },
        ],
    }

    def test_fresh_outcomes_keep_the_result_they_encoded(
        self, tmp_path, monkeypatch
    ):
        decoded = []
        real = runner_module.result_from_dict

        def counted(payload):
            decoded.append(payload)
            return real(payload)

        monkeypatch.setattr(runner_module, "result_from_dict", counted)
        manifest = manifest_from_dict(json.loads(json.dumps(self.MANIFEST)))
        journal_path = tmp_path / "journal.json"

        def run(resume):
            return CampaignRunner(
                manifest, journal_path, results_dir=tmp_path / "results",
                handle_signals=False,
            ).run(resume=resume)

        fresh = run(resume=False)
        assert fresh.ok
        assert decoded == []  # no fresh entry is decoded again
        records = CampaignJournal(journal_path).load()
        for outcome in fresh.outcomes:
            assert results_equal(
                outcome.result, result_from_dict(records[outcome.entry_id].payload)
            ), outcome.entry_id

        resumed = run(resume=True)
        assert len(decoded) == len(records)  # each resumed entry, once
        for a, b in zip(fresh.outcomes, resumed.outcomes):
            assert results_equal(a.result, b.result), a.entry_id
