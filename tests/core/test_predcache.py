"""Tests for prediction fingerprints and the last-known-good cache."""

from __future__ import annotations

import pytest

from repro.core.durable import CorruptStoreError
from repro.core.fingerprint import prediction_fingerprint
from repro.core.predcache import CachedPrediction, PredictionCache
from repro.simgrid.errors import ConfigurationError

from tests.core.conftest import make_profile, make_target


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        profile, target = make_profile(), make_target()
        a = prediction_fingerprint(profile, target, "global reduction")
        b = prediction_fingerprint(profile, target, "global reduction")
        assert a == b

    def test_any_input_perturbs_the_fingerprint(self):
        profile, target = make_profile(), make_target()
        base = prediction_fingerprint(profile, target, "global reduction")
        assert base != prediction_fingerprint(
            make_profile(t_disk=9.9), target, "global reduction"
        )
        assert base != prediction_fingerprint(
            profile, make_target(c=8), "global reduction"
        )
        assert base != prediction_fingerprint(
            profile, target, "no communication"
        )
        assert base != prediction_fingerprint(
            profile, target, "global reduction", extra=(("pairs", [1]),)
        )

    def test_fingerprint_is_hex_digest(self):
        digest = prediction_fingerprint(
            make_profile(), make_target(), "m"
        )
        assert len(digest) == 64
        int(digest, 16)


class TestPredictionCache:
    def test_put_get_and_hit_counting(self):
        cache = PredictionCache(max_entries=4)
        cache.put("fp1", {"total": 1.0}, 10.0)
        entry = cache.get("fp1")
        assert entry is not None
        assert entry.payload == {"total": 1.0}
        assert entry.age_s(12.5) == pytest.approx(2.5)
        assert entry.hits == 1
        cache.get("fp1")
        assert cache.get("fp1").hits == 3
        assert cache.get("missing") is None

    def test_eviction_is_deterministic_oldest_first(self):
        cache = PredictionCache(max_entries=2)
        cache.put("a", {}, 1.0)
        cache.put("b", {}, 2.0)
        cache.put("c", {}, 3.0)
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.evictions == 1

    def test_refresh_moves_entry_to_back(self):
        cache = PredictionCache(max_entries=2)
        cache.put("a", {}, 1.0)
        cache.put("b", {}, 2.0)
        cache.put("a", {"fresh": True}, 3.0)  # refresh: now newest
        cache.put("c", {}, 4.0)
        assert cache.get("b") is None
        assert cache.get("a").payload == {"fresh": True}

    def test_round_trip_preserves_order_and_counters(self, tmp_path):
        cache = PredictionCache(max_entries=3)
        cache.put("a", {"total": 1.0}, 1.0)
        cache.put("b", {"total": 2.0}, 2.0)
        cache.get("b")
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = PredictionCache.load(path)
        assert len(loaded) == 2
        assert loaded.get("b").payload == {"total": 2.0}
        # Eviction order survives the round trip.
        loaded.put("c", {}, 3.0)
        loaded.put("d", {}, 4.0)
        assert loaded.get("a") is None
        assert loaded.get("b") is not None

    def test_corrupt_cache_file_names_remedy(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ torn")
        with pytest.raises(CorruptStoreError, match="rebuilds"):
            PredictionCache.load(path)

    def test_undecodable_cache_file_names_remedy(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"\xff\xfe\x00not text")
        with pytest.raises(CorruptStoreError, match="rebuilds") as excinfo:
            PredictionCache.load(path)
        assert str(path) in str(excinfo.value)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PredictionCache(max_entries=0)


class TestCachedPrediction:
    def test_age_never_negative(self):
        entry = CachedPrediction(payload={}, stored_at_s=5.0)
        assert entry.age_s(4.0) == 0.0
