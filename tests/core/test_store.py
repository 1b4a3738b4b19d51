"""Tests for profile persistence and hardware-spec serialization."""

import dataclasses
import json
import math
import re

import pytest

from repro.core.store import (
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)
from repro.simgrid.errors import ConfigurationError
from repro.simgrid.serialize import cluster_from_dict, cluster_to_dict
from repro.workloads.clusters import (
    opteron_infiniband_cluster,
    pentium_myrinet_cluster,
)

from tests.conftest import small_cluster_spec
from tests.core.conftest import make_profile


class TestClusterSerialization:
    @pytest.mark.parametrize(
        "factory",
        [small_cluster_spec, pentium_myrinet_cluster, opteron_infiniband_cluster],
    )
    def test_round_trip(self, factory):
        original = factory()
        rebuilt = cluster_from_dict(cluster_to_dict(original))
        assert rebuilt == original

    def test_round_trip_is_json_safe(self):
        data = cluster_to_dict(small_cluster_spec())
        rebuilt = cluster_from_dict(json.loads(json.dumps(data)))
        assert rebuilt == small_cluster_spec()

    def test_missing_field_rejected(self):
        data = cluster_to_dict(small_cluster_spec())
        del data["cpu"]
        with pytest.raises(ConfigurationError):
            cluster_from_dict(data)

    def test_none_cache_disk_round_trips(self):
        import dataclasses

        original = dataclasses.replace(small_cluster_spec(), cache_disk=None)
        rebuilt = cluster_from_dict(cluster_to_dict(original))
        assert rebuilt.cache_disk is None


class TestProfileSerialization:
    def test_round_trip(self):
        original = make_profile(n=2, c=4, rounds=3, broadcast=128.0)
        rebuilt = profile_from_dict(profile_to_dict(original))
        # metadata is intentionally not persisted; compare the rest
        assert rebuilt.app == original.app
        assert rebuilt.total == pytest.approx(original.total)
        assert rebuilt.t_ro == original.t_ro
        assert rebuilt.max_object_bytes == original.max_object_bytes
        assert rebuilt.gather_rounds == 3
        assert rebuilt.broadcast_bytes == 128.0
        assert rebuilt.storage_cluster == original.storage_cluster

    def test_version_checked(self):
        data = profile_to_dict(make_profile())
        data["format_version"] = 999
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)

    def test_malformed_rejected(self):
        data = profile_to_dict(make_profile())
        del data["t_disk"]
        with pytest.raises(ConfigurationError):
            profile_from_dict(data)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("t_disk",), math.nan, "t_disk"),
            (("bandwidth",), math.nan, "bandwidth"),
            (("data_nodes",), 2.7, "data_nodes"),
            (("data_nodes",), True, "data_nodes"),
            (("data_nodes",), math.inf, "data_nodes"),
            (("app",), [1, 2], "app"),
            (("broadcast_bytes",), "12", "broadcast_bytes"),
            (("storage_cluster", "cpu", "rates"), [1, 2], "cpu.rates"),
            (("compute_cluster", "num_nodes"), 1e999, "num_nodes"),
            (("compute_cluster", "disk", "seek_s"), None, "disk.seek_s"),
        ],
    )
    def test_every_field_is_strict(self, path, value, named):
        data = profile_to_dict(make_profile())
        *parents, last = path
        holder = data
        for key in parents:
            holder = holder[key]
        holder[last] = value
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            profile_from_dict(data)

    def test_a_literal_overflowing_count_is_an_error(self, tmp_path):
        path = tmp_path / "p.json"
        text = json.dumps(profile_to_dict(make_profile(n=2)))
        path.write_text(text.replace('"data_nodes": 2', '"data_nodes": 1e999'))
        with pytest.raises(ConfigurationError, match="data_nodes"):
            load_profile(path)

    @pytest.mark.parametrize(
        "name", ["t_disk", "bandwidth", "dataset_bytes", "max_object_bytes"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_profile_rejects_non_finite_values(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            dataclasses.replace(make_profile(), **{name: value})


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        profile = make_profile()
        path = save_profile(profile, tmp_path / "p.json")
        loaded = load_profile(path)
        assert loaded.total == pytest.approx(profile.total)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_profile(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_profile(path)


class TestDurableStore:
    def test_corrupt_file_names_path_and_remedy(self, tmp_path):
        from repro.core.durable import CorruptStoreError

        path = tmp_path / "p.json"
        path.write_text("{truncated")
        with pytest.raises(CorruptStoreError) as excinfo:
            load_profile(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "re-profile" in message

    def test_future_format_version_names_remedy(self, tmp_path):
        from repro.core.durable import FormatVersionError

        path = save_profile(make_profile(), tmp_path / "p.json")
        data = json.loads(path.read_text())
        data["format_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError, match="newer version"):
            load_profile(path)

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_profile(make_profile(), tmp_path / "p.json")
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    def test_failed_save_preserves_previous_profile(self, tmp_path, monkeypatch):
        import repro.core.durable as durable

        path = save_profile(make_profile(app="kmeans"), tmp_path / "p.json")
        before = path.read_bytes()

        def explode(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(durable.os, "replace", explode)
        with pytest.raises(OSError):
            save_profile(make_profile(app="em"), path)
        monkeypatch.undo()

        # Atomicity: the old profile is intact, no temp file remains.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]
        assert load_profile(path).app == "kmeans"
