"""Tests for the durable campaign journal (format 3: a log of JSON lines)."""

import json
import pathlib

import pytest

import repro.core.durable as durable
from repro.campaign import CampaignJournal, JournalRecord
from repro.core.durable import CorruptStoreError, FormatVersionError
from repro.errors import CampaignError

from tests.campaign.conftest import FAKE_IDS, fake_result, make_manifest
from tests.campaign.test_runner import results_digest, run_campaign
from repro.analysis.results_io import result_to_dict

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def record(entry_id, status="completed", attempts=1, rows=3):
    payload = None if status == "timed-out" else result_to_dict(
        fake_result(entry_id, rows=rows)
    )
    return JournalRecord(
        entry_id=entry_id,
        status=status,
        attempts=attempts,
        elapsed_s=0.5,
        payload=payload,
        violations=[] if status != "timed-out" else ["deadline"],
    )


def journal_with(path, ids, rows=3):
    journal = CampaignJournal(path)
    journal.initialize("camp", "fp-1")
    for entry_id in ids:
        journal.commit(record(entry_id, rows=rows))
    return journal


def edit_line(path, number, edit):
    """Re-encode line ``number`` (0 = header) after ``edit(document)``."""
    lines = path.read_text().splitlines()
    document = json.loads(lines[number])
    edit(document)
    lines[number] = json.dumps(document, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


class TestRoundTrip:
    def test_commit_and_load(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.json")
        journal.initialize("camp", "fp-1")
        journal.commit(record("fig02"))
        journal.commit(record("fig03", status="timed-out", attempts=2))

        fresh = CampaignJournal(tmp_path / "j.json")
        records = fresh.load(expected_fingerprint="fp-1")
        assert list(records) == ["fig02", "fig03"]
        assert records["fig02"].status == "completed"
        assert records["fig02"].payload["experiment_id"] == "fig02"
        assert records["fig03"].status == "timed-out"
        assert records["fig03"].payload is None
        assert records["fig03"].attempts == 2
        assert (fresh.campaign, fresh.fingerprint) == ("camp", "fp-1")

    def test_no_temp_files_left_behind(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.json")
        journal.initialize("camp", "fp-1")
        journal.commit(record("fig02"))
        assert [p.name for p in tmp_path.iterdir()] == ["j.json"]

    def test_one_line_per_record_after_a_header_line(self, tmp_path):
        path = tmp_path / "j.json"
        journal_with(path, FAKE_IDS[:3])
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {
            "campaign": "camp",
            "format_version": 3,
            "manifest_sha256": "fp-1",
        }
        assert [json.loads(line)["entry_id"] for line in lines] == FAKE_IDS[:3]
        assert path.read_bytes().endswith(b"}\n")


class TestMisuse:
    def test_commit_before_initialize(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignJournal(tmp_path / "j.json").commit(record("fig02"))

    def test_initialize_refuses_existing(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.json")
        journal.initialize("camp", "fp-1")
        with pytest.raises(CampaignError, match="already exists"):
            CampaignJournal(tmp_path / "j.json").initialize("camp", "fp-1")

    def test_duplicate_commit_rejected(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.json")
        journal.initialize("camp", "fp-1")
        journal.commit(record("fig02"))
        with pytest.raises(CampaignError, match="already journaled"):
            journal.commit(record("fig02"))

    def test_unsettled_status_rejected(self):
        with pytest.raises(CampaignError):
            record("fig02", status="skipped")


class TestCorruptionDetection:
    def _journal_with_one_entry(self, tmp_path):
        journal_with(tmp_path / "j.json", ["fig02"])
        return tmp_path / "j.json"

    def test_truncated_file(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CorruptStoreError, match=str(path)):
            CampaignJournal(path).load()

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)

        def tamper(line):
            line["payload"]["rows"][0]["actual"] = 99.0

        # The record parses, so it is judged even as the final line.
        edit_line(path, 1, tamper)
        with pytest.raises(CorruptStoreError, match="checksum"):
            CampaignJournal(path).load()

    def test_unknown_format_version(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)
        edit_line(path, 0, lambda h: h.update(format_version=999))
        with pytest.raises(FormatVersionError, match="newer version"):
            CampaignJournal(path).load()

    def test_older_format_version(self, tmp_path):
        # Format 1 is upgraded, never refused; 0 never existed.
        path = self._journal_with_one_entry(tmp_path)
        edit_line(path, 0, lambda h: h.update(format_version=0))
        with pytest.raises(FormatVersionError, match="older build"):
            CampaignJournal(path).load()

    @pytest.mark.parametrize("version", [None, "2", 2.5])
    def test_missing_or_non_integer_format_version(self, tmp_path, version):
        path = self._journal_with_one_entry(tmp_path)

        def edit(header):
            if version is None:
                del header["format_version"]
            else:
                header["format_version"] = version

        edit_line(path, 0, edit)
        with pytest.raises(FormatVersionError, match="missing or not an"):
            CampaignJournal(path).load()

    def test_fingerprint_mismatch(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)
        with pytest.raises(CampaignError, match="different manifest"):
            CampaignJournal(path).load(expected_fingerprint="other-fp")

    def test_missing_key(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)
        edit_line(path, 0, lambda h: h.pop("manifest_sha256"))
        with pytest.raises(CorruptStoreError, match="manifest_sha256"):
            CampaignJournal(path).load()

    def test_record_missing_a_field(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)
        edit_line(path, 1, lambda line: line.pop("status"))
        with pytest.raises(CorruptStoreError, match="malformed record"):
            CampaignJournal(path).load()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("attempts", "2"),
            ("attempts", 2.7),
            ("attempts", 0),
            ("attempts", float("inf")),
            ("elapsed_s", "nan"),
            ("elapsed_s", float("nan")),
            ("violations", "ab"),
            ("violations", [1]),
            ("violations", {"deadline": 1}),
        ],
    )
    def test_record_field_outside_the_checksum(self, tmp_path, field, value):
        # These fields are not covered by the payload's sha256: the
        # record parse is the only check they get.
        path = self._journal_with_one_entry(tmp_path)
        edit_line(path, 1, lambda line: line.update({field: value}))
        with pytest.raises(CorruptStoreError, match="'fig02'") as err:
            CampaignJournal(path).load()
        assert field in str(err.value)

    def test_duplicate_entry_on_disk(self, tmp_path):
        path = self._journal_with_one_entry(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[1:]))
        with pytest.raises(CorruptStoreError, match="duplicate entry"):
            CampaignJournal(path).load()

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(CorruptStoreError, match="not UTF-8") as err:
            CampaignJournal(path).load()
        assert str(path) in str(err.value)
        assert "delete it" in str(err.value)

    @pytest.mark.parametrize("where", ["payload", "structure"])
    def test_flipped_byte_before_the_final_line(self, tmp_path, where):
        path = tmp_path / "j.json"
        journal_with(path, FAKE_IDS[:3])
        raw = bytearray(path.read_bytes())
        fig03 = raw.index(b'{"attempts"', raw.index(b"fig02"))
        if where == "payload":
            at = raw.index(b'"predicted":', fig03) + len(b'"predicted":')
            raw[at] ^= 0x01  # another digit: still JSON, another value
        else:
            raw[fig03] ^= 0x01  # the opening brace: no longer JSON
        path.write_bytes(bytes(raw))
        assert b"fig03" in path.read_bytes().splitlines()[2]
        with pytest.raises(CorruptStoreError, match=str(path)):
            CampaignJournal(path).load()


class TestCrashAtAnyByte:
    """A kill can land between any two bytes of an append."""

    def test_every_prefix_loads_or_fails_cleanly(self, tmp_path, monkeypatch):
        # Thousands of commits: what is checked here is bytes, not
        # durability, so the fsyncs are skipped.
        monkeypatch.setattr(durable.os, "fsync", lambda _fd: None)
        whole_path = tmp_path / "whole.json"
        journal_with(whole_path, FAKE_IDS[:3], rows=1)
        whole = whole_path.read_bytes()
        ends = [i + 1 for i, b in enumerate(whole) if b == ord("\n")]
        assert len(ends) == 4  # header + three records
        path = tmp_path / "cut.json"
        for cut in range(len(whole) + 1):
            path.write_bytes(whole[:cut])
            journal = CampaignJournal(path)
            if cut < ends[0]:
                with pytest.raises(CorruptStoreError):
                    journal.load()
                assert path.read_bytes() == whole[:cut]
                continue
            complete = sum(1 for end in ends[1:] if end <= cut)
            assert list(journal.load()) == FAKE_IDS[:complete], cut
            assert path.read_bytes() == whole[:cut], "load() wrote"

            # The next commit leaves header + complete lines + its own
            # line: no fragment of the unacknowledged record survives.
            journal.commit(record("fig07", rows=1))
            assert path.read_bytes().startswith(whole[: ends[complete]])
            assert len(path.read_bytes().splitlines()) == complete + 2
            reloaded = CampaignJournal(path).load()
            assert list(reloaded) == FAKE_IDS[:complete] + ["fig07"], cut
            assert reloaded["fig07"] == record("fig07", rows=1)
        assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []

    def test_unparsable_terminated_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "j.json"
        journal_with(path, FAKE_IDS[:2])
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"entry_id":"fig04","pay\x00\n')
        journal = CampaignJournal(path)
        assert list(journal.load()) == FAKE_IDS[:2]
        journal.commit(record("fig04"))
        assert path.read_bytes().startswith(intact)
        assert list(CampaignJournal(path).load()) == FAKE_IDS[:3]


class TestCommitCost:
    def test_fiftieth_commit_costs_what_the_first_did(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.journal as journal_module

        calls = {"digest": 0, "dumps": 0}
        real_digest, real_dumps = durable.content_digest, json.dumps

        def counted_digest(data):
            calls["digest"] += 1
            return real_digest(data)

        def counted_dumps(*args, **kwargs):
            calls["dumps"] += 1
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(journal_module, "content_digest", counted_digest)
        monkeypatch.setattr(json, "dumps", counted_dumps)

        path = tmp_path / "j.json"
        journal = CampaignJournal(path)
        journal.initialize("camp", "fp-1")
        costs = []
        for i in range(50):
            calls.update(digest=0, dumps=0)
            size = path.stat().st_size
            journal.commit(
                JournalRecord(
                    entry_id=f"e{i:02d}",
                    status="completed",
                    attempts=1,
                    elapsed_s=0.5,
                    payload=result_to_dict(fake_result("fig02")),
                )
            )
            grown = path.stat().st_size - size
            last_line = path.read_bytes().splitlines(keepends=True)[-1]
            assert grown == len(last_line)
            costs.append((calls["digest"], calls["dumps"], grown))
        # One digest; two encodes: the digest's and the line's.
        assert costs[0] == costs[49]
        assert costs[0][:2] == (1, 2)
        assert len(set(costs)) == 1


class TestCommitAtomicity:
    def test_failed_append_never_corrupts_the_journal(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.json"
        journal = journal_with(path, ["fig02"])
        before = path.read_bytes()

        def explode(_fd):
            raise OSError("disk pulled mid-fsync")

        monkeypatch.setattr(durable.os, "fsync", explode)
        with pytest.raises(OSError, match="mid-fsync"):
            journal.commit(record("fig03"))
        monkeypatch.undo()

        # Unacknowledged: the line may or may not have reached the file,
        # but what was there is untouched and the journal still loads.
        assert path.read_bytes().startswith(before)
        assert list(CampaignJournal(path).load()) in (
            ["fig02"], ["fig02", "fig03"],
        )
        assert "fig03" not in journal.records

    def test_failed_replace_preserves_old_journal(self, tmp_path, monkeypatch):
        # The one whole-file rewrite left: the repair before the first
        # append after a load that saw a torn tail.
        path = tmp_path / "j.json"
        journal_with(path, ["fig02"])
        path.write_bytes(path.read_bytes() + b'{"entry_id":"fig0')
        before = path.read_bytes()
        journal = CampaignJournal(path)
        journal.load()

        def explode(*_args, **_kwargs):
            raise OSError("disk pulled mid-rename")

        monkeypatch.setattr(durable.os, "replace", explode)
        with pytest.raises(OSError):
            journal.commit(record("fig03"))
        monkeypatch.undo()

        # The on-disk journal is the complete previous file and no temp
        # file survived the failed commit.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["j.json"]
        assert list(CampaignJournal(path).load()) == ["fig02"]
        # The same journal object can still repair and commit.
        journal.commit(record("fig03"))
        assert list(CampaignJournal(path).load()) == ["fig02", "fig03"]


class TestFormat1Upgrade:
    """``goldens/journal_v1.json`` was written by the last format-1 build
    (commit 98e430b) for the first two ``FAKE_IDS`` of ``make_manifest()``.
    """

    def test_load_is_read_only(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_bytes((GOLDENS / "journal_v1.json").read_bytes())
        records = CampaignJournal(path).load(
            expected_fingerprint=make_manifest().fingerprint(),
            legacy_fingerprint=make_manifest().fingerprint(legacy=True),
        )
        assert list(records) == FAKE_IDS[:2]
        assert path.read_bytes() == (GOLDENS / "journal_v1.json").read_bytes()

    def test_resume_upgrades_and_matches_uninterrupted_run(self, tmp_path):
        assert run_campaign(tmp_path, "ref").run().ok
        journal_path = tmp_path / "v1" / "journal.json"
        journal_path.parent.mkdir()
        journal_path.write_bytes((GOLDENS / "journal_v1.json").read_bytes())
        log = []
        report = run_campaign(tmp_path, "v1", log=log).run(resume=True)
        assert report.ok
        assert [o.status for o in report.outcomes] == (
            ["resumed"] * 2 + ["completed"] * 4
        )
        assert log == FAKE_IDS[2:]

        header = json.loads(journal_path.read_text().splitlines()[0])
        assert header["format_version"] == 3
        assert header["manifest_sha256"] == make_manifest().fingerprint()
        assert list(CampaignJournal(journal_path).load()) == FAKE_IDS
        assert results_digest(tmp_path / "v1/results") == results_digest(
            tmp_path / "ref/results"
        )
        assert len(results_digest(tmp_path / "v1/results")) == len(FAKE_IDS)


class TestLegacyFormats:
    """Formats 1 and 2 digest the indented encoding; format 3 the compact.

    ``goldens/journal_v2.jsonl`` is the header and first two records of a
    format-2 journal written by the last format-2 build for
    ``make_manifest()`` (the same entries as ``journal_v1.json``).
    """

    GOLDENS = {1: "journal_v1.json", 2: "journal_v2.jsonl"}

    def copy(self, tmp_path, version):
        path = tmp_path / "journal.json"
        path.write_bytes((GOLDENS / self.GOLDENS[version]).read_bytes())
        return path

    @pytest.mark.parametrize("version", [1, 2])
    def test_load_checks_the_legacy_fingerprint(self, tmp_path, version):
        manifest = make_manifest()
        path = self.copy(tmp_path, version)
        journal = CampaignJournal(path)
        with pytest.raises(CampaignError, match="different manifest"):
            journal.load(expected_fingerprint=manifest.fingerprint())
        records = journal.load(
            expected_fingerprint=manifest.fingerprint(),
            legacy_fingerprint=manifest.fingerprint(legacy=True),
        )
        assert list(records) == FAKE_IDS[:2]
        assert journal.fingerprint == manifest.fingerprint()
        assert path.read_bytes() == (GOLDENS / self.GOLDENS[version]).read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_first_commit_upgrades_to_format_3(self, tmp_path, version):
        manifest = make_manifest()
        path = self.copy(tmp_path, version)
        journal = CampaignJournal(path)
        old = journal.load(
            expected_fingerprint=manifest.fingerprint(),
            legacy_fingerprint=manifest.fingerprint(legacy=True),
        )
        journal.commit(record("fig04"))
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {
            "campaign": "fake-campaign",
            "format_version": 3,
            "manifest_sha256": manifest.fingerprint(),
        }
        assert [
            json.loads(line)["sha256"] for line in lines
        ] == [
            durable.content_digest(r.payload)
            for r in [*old.values(), record("fig04")]
        ]
        reloaded = CampaignJournal(path).load(
            expected_fingerprint=manifest.fingerprint()
        )
        assert list(reloaded) == FAKE_IDS[:2] + ["fig04"]
        assert reloaded["fig03"] == old["fig03"]

    def test_resume_from_format_2_matches_uninterrupted_run(self, tmp_path):
        assert run_campaign(tmp_path, "ref").run().ok
        journal_path = tmp_path / "v2" / "journal.json"
        journal_path.parent.mkdir()
        journal_path.write_bytes((GOLDENS / "journal_v2.jsonl").read_bytes())
        log = []
        report = run_campaign(tmp_path, "v2", log=log).run(resume=True)
        assert [o.status for o in report.outcomes] == (
            ["resumed"] * 2 + ["completed"] * 4
        )
        assert log == FAKE_IDS[2:]
        assert results_digest(tmp_path / "v2/results") == results_digest(
            tmp_path / "ref/results"
        )

    def test_status_read_of_a_legacy_journal_never_commits(self, tmp_path):
        journal = CampaignJournal(self.copy(tmp_path, 2))
        assert list(journal.load()) == FAKE_IDS[:2]
        with pytest.raises(CampaignError, match="with its fingerprint"):
            journal.commit(record("fig04"))

    @pytest.mark.parametrize("version", [1, 2])
    def test_tampered_legacy_record_still_fails(self, tmp_path, version):
        path = self.copy(tmp_path, version)
        text = path.read_text()  # fig02's first row comes first
        path.write_text(text.replace("1.05", "1.06", 1))
        with pytest.raises(CorruptStoreError, match="checksum mismatch on entry 'fig02'"):
            CampaignJournal(path).load()

    def test_a_legacy_digest_is_not_accepted_as_format_3(self, tmp_path):
        # Relabelled format 3, the same records fail: the digest encoding
        # is part of what format_version means.
        path = self.copy(tmp_path, 2)
        edit_line(path, 0, lambda h: h.update(format_version=3))
        with pytest.raises(CorruptStoreError, match="checksum mismatch"):
            CampaignJournal(path).load()
