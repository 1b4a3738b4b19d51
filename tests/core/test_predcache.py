"""Tests for prediction fingerprints and the last-known-good cache."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import (
    _profile_dict,
    cluster_fingerprint,
    prediction_fingerprint,
    profile_fingerprint,
)
from repro.core.predcache import CachedPrediction, PredictionCache
from repro.simgrid.errors import ConfigurationError

from tests.conftest import small_cluster_spec
from tests.core.conftest import make_profile, make_target


def key(profile, target, model_label, extra=()):
    """The key a holder of these objects would compute, digests and all."""
    return prediction_fingerprint(
        profile_fingerprint(profile),
        cluster_fingerprint(target.config.storage_cluster),
        cluster_fingerprint(target.config.compute_cluster),
        target,
        model_label,
        extra,
    )


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        profile, target = make_profile(), make_target()
        a = key(profile, target, "global reduction")
        b = key(profile, target, "global reduction")
        assert a == b

    def test_any_input_perturbs_the_fingerprint(self):
        profile, target = make_profile(), make_target()
        base = key(profile, target, "global reduction")
        assert base != key(make_profile(t_disk=9.9), target, "global reduction")
        assert base != key(profile, make_target(c=8), "global reduction")
        assert base != key(profile, target, "no communication")
        assert base != key(
            profile, target, "global reduction", extra=(("pairs", [1]),)
        )

    def test_fingerprint_is_hex_digest(self):
        digest = key(make_profile(), make_target(), "m")
        assert len(digest) == 64
        int(digest, 16)

    def test_profile_fingerprint_is_pinned(self):
        """The digest covers the stored fields minus ``format_version``:
        sharing the field list with ``profile_to_dict`` moved no byte."""
        assert profile_fingerprint(make_profile()) == (
            "689cd833772db3ccc3f6076ea2ea53f948e2029d60e58dce94134f292f6c99cd"
        )


#: Every scalar the profile digest covers (the two clusters are perturbed
#: through ``intra_bw`` below); ``app`` is the one string among them.
PROFILE_SCALARS = sorted(
    set(_profile_dict(make_profile())) - {"storage_cluster", "compute_cluster"}
)
TARGET_SCALARS = ("data_nodes", "compute_nodes", "bandwidth", "processes_per_node")
PAIRS = (("endpoint", "what-if"), ("pairs", [[1, 2], [2, 4]]))


def bumped(obj, field):
    """A copy of a frozen dataclass with one field changed."""
    value = getattr(obj, field)
    changed = value + "x" if isinstance(value, str) else value + 1
    return dataclasses.replace(obj, **{field: changed})


class TestKeyProperty:
    """Equal content, equal key; any one input changed, another key."""

    @given(
        t_disk=st.floats(0.1, 1e3),
        nodes=st.sampled_from([(1, 1), (1, 2), (2, 4), (4, 8)]),
        bandwidth=st.floats(1e3, 1e9),
        label=st.sampled_from(["global reduction", "no communication"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_content_gives_equal_key_whatever_the_identity(
        self, t_disk, nodes, bandwidth, label
    ):
        def build():  # fresh objects, fresh clusters, every time
            return (
                make_profile(t_disk=t_disk),
                make_target(n=nodes[0], c=nodes[1], b=bandwidth),
            )

        assert key(*build(), label, PAIRS) == key(
            *build(), label, tuple(reversed(PAIRS))
        )

    @pytest.mark.parametrize("field", PROFILE_SCALARS)
    def test_every_profile_field_is_in_the_key(self, field):
        profile, target = make_profile(c=2, rounds=2), make_target()
        assert key(profile, target, "m") != key(bumped(profile, field), target, "m")

    @pytest.mark.parametrize("role", ["storage_cluster", "compute_cluster"])
    def test_every_cluster_parameter_is_in_the_key(self, role):
        faster = dataclasses.replace(small_cluster_spec(), intra_bw=4.0e7)
        profile, target = make_profile(), make_target()
        base = key(profile, target, "m")
        assert base != key(dataclasses.replace(profile, **{role: faster}), target, "m")
        config = dataclasses.replace(target.config, **{role: faster})
        assert base != key(profile, dataclasses.replace(target, config=config), "m")

    @pytest.mark.parametrize("field", TARGET_SCALARS)
    def test_every_target_scalar_is_in_the_key(self, field):
        profile, target = make_profile(), make_target()
        moved = dataclasses.replace(target, config=bumped(target.config, field))
        assert key(profile, target, "m") != key(profile, moved, "m")
        assert key(profile, target, "m") != key(
            profile, bumped(target, "dataset_bytes"), "m"
        )

    def test_pair_order_and_model_label_are_in_the_key(self):
        profile, target = make_profile(), make_target()
        swapped = (PAIRS[0], ("pairs", [[2, 4], [1, 2]]))
        assert key(profile, target, "m", PAIRS) != key(profile, target, "m", swapped)
        assert key(profile, target, "m", PAIRS) != key(profile, target, "n", PAIRS)


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

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PredictionCache(max_entries=0)


class TestCachedPrediction:
    def test_age_never_negative(self):
        entry = CachedPrediction(payload={}, stored_at_s=5.0)
        assert entry.age_s(4.0) == 0.0
