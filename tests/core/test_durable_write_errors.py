"""A destination the OS refuses is a ``StoreError`` naming the path."""

import builtins
import pathlib

import pytest

from repro.core import durable
from repro.core.durable import DurableAppender, StoreError, atomic_write_text


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


class TestAtomicWrite:
    def test_destination_is_a_directory(self, tmp_path):
        target = tmp_path / "reports"
        target.mkdir()
        with pytest.raises(StoreError, match="Is a directory") as caught:
            atomic_write_text(target, "x")
        assert str(target) in str(caught.value)
        assert isinstance(caught.value.__cause__, IsADirectoryError)
        assert listing(tmp_path) == ["reports"]  # temp file unlinked

    def test_parent_is_a_file(self, tmp_path):
        (tmp_path / "file").write_text("old")
        target = tmp_path / "file" / "report.json"
        with pytest.raises(StoreError) as caught:
            atomic_write_text(target, "x")
        assert str(target) in str(caught.value)
        assert isinstance(
            caught.value.__cause__, (NotADirectoryError, FileExistsError)
        )
        assert (tmp_path / "file").read_text() == "old"

    def test_permission_denied(self, tmp_path, monkeypatch):
        # Simulated: the suite may run as root, whom no mode bit stops.
        target = tmp_path / "report.json"
        target.write_text("old")

        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(builtins, "open", denied)
        with pytest.raises(StoreError, match="Permission denied") as caught:
            atomic_write_text(target, "new")
        monkeypatch.undo()
        assert str(target) in str(caught.value)
        assert target.read_text() == "old"
        assert listing(tmp_path) == ["report.json"]

    def test_missing_parents_are_created(self, tmp_path):
        target = tmp_path / "a" / "b" / "report.json"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"
        assert listing(target.parent) == ["report.json"]

    def test_an_existing_parent_costs_no_mkdir(self, tmp_path, monkeypatch):
        made = []
        monkeypatch.setattr(
            pathlib.Path, "mkdir", lambda path, *a, **k: made.append(path)
        )
        atomic_write_text(tmp_path / "report.json", "x")
        atomic_write_text(tmp_path / "report.json", "y")
        assert made == []
        assert (tmp_path / "report.json").read_text() == "y"

    def test_interrupt_still_unlinks_the_temp_file(self, tmp_path, monkeypatch):
        def interrupt(*_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(durable.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(tmp_path / "report.json", "x")
        monkeypatch.undo()
        assert listing(tmp_path) == []


class TestAppend:
    def test_destination_is_a_directory(self, tmp_path):
        with pytest.raises(StoreError, match="Is a directory") as caught:
            DurableAppender(tmp_path)
        assert str(tmp_path) in str(caught.value)

    def test_missing_parent_directory(self, tmp_path):
        target = tmp_path / "absent" / "journal.jsonl"
        with pytest.raises(StoreError, match="No such file") as caught:
            DurableAppender(target)
        assert str(target) in str(caught.value)
        assert not target.parent.exists()  # nothing half-created
