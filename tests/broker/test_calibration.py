"""Online calibration: EW updates, keying, clamping, convergence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.calibration import OnlineCalibrator
from repro.core.models import PredictedBreakdown
from repro.simgrid.errors import ConfigurationError

RAW = PredictedBreakdown(t_disk=2.0, t_network=4.0, t_compute=8.0)


class TestValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ConfigurationError):
            OnlineCalibrator(alpha=0.0)
        with pytest.raises(ConfigurationError):
            OnlineCalibrator(alpha=1.5)
        OnlineCalibrator(alpha=1.0)  # inclusive upper bound

    def test_clamp_bounds(self):
        with pytest.raises(ConfigurationError):
            OnlineCalibrator(clamp=(0.0, 2.0))
        with pytest.raises(ConfigurationError):
            OnlineCalibrator(clamp=(2.0, 1.0))


class TestFactors:
    def test_unobserved_factor_is_identity(self):
        cal = OnlineCalibrator()
        assert cal.factor("compute", "knn", "repo", "hpc") == 1.0
        corrected = cal.correct("knn", "repo", "hpc", RAW)
        assert corrected.total == pytest.approx(RAW.total)

    def test_unknown_component_raises(self):
        with pytest.raises(ConfigurationError):
            OnlineCalibrator().factor("gpu", "knn", "repo", "hpc")

    def test_single_observation_moves_by_alpha(self):
        cal = OnlineCalibrator(alpha=0.5)
        # actual compute is 2x the prediction -> ratio 2, f = 1 + .5*(2-1)
        cal.observe("knn", "repo", "hpc", RAW, (2.0, 4.0, 16.0))
        assert cal.factor("compute", "knn", "repo", "hpc") == pytest.approx(1.5)
        assert cal.factor("disk", "knn", "repo", "hpc") == pytest.approx(1.0)

    def test_converges_to_systematic_bias(self):
        cal = OnlineCalibrator(alpha=0.3)
        for _ in range(40):
            cal.observe("knn", "repo", "hpc", RAW, (2.0, 4.0, 12.0))
        assert cal.factor("compute", "knn", "repo", "hpc") == pytest.approx(
            1.5, rel=1e-3
        )
        corrected = cal.correct("knn", "repo", "hpc", RAW)
        assert corrected.t_compute == pytest.approx(12.0, rel=1e-3)

    def test_components_keyed_by_distinct_resources(self):
        cal = OnlineCalibrator(alpha=1.0)
        cal.observe("knn", "repo", "hpc-1", RAW, (2.0, 8.0, 8.0))
        # network factor is path-specific: a different compute site is
        # unaffected, but the shared replica's disk factor carries over.
        assert cal.factor("network", "knn", "repo", "hpc-1") == 2.0
        assert cal.factor("network", "knn", "repo", "hpc-2") == 1.0
        assert cal.factor("disk", "knn", "repo", "hpc-2") == 1.0
        cal.observe("knn", "repo", "hpc-1", RAW, (4.0, 4.0, 8.0))
        assert cal.factor("disk", "knn", "repo", "hpc-2") == 2.0

    def test_apps_are_independent(self):
        cal = OnlineCalibrator(alpha=1.0)
        cal.observe("knn", "repo", "hpc", RAW, (2.0, 4.0, 16.0))
        assert cal.factor("compute", "kmeans", "repo", "hpc") == 1.0

    def test_ratio_is_clamped(self):
        cal = OnlineCalibrator(alpha=1.0, clamp=(0.5, 2.0))
        cal.observe("knn", "repo", "hpc", RAW, (2.0, 4.0, 800.0))
        assert cal.factor("compute", "knn", "repo", "hpc") == 2.0

    def test_near_zero_prediction_skipped(self):
        cal = OnlineCalibrator(alpha=1.0)
        raw = PredictedBreakdown(t_disk=0.0, t_network=4.0, t_compute=8.0)
        cal.observe("knn", "repo", "hpc", raw, (5.0, 4.0, 8.0))
        assert cal.factor("disk", "knn", "repo", "hpc") == 1.0
        assert cal.total_observations == 2  # network + compute only

    def test_ro_and_g_ride_the_compute_factor(self):
        cal = OnlineCalibrator(alpha=1.0)
        raw = PredictedBreakdown(
            t_disk=2.0, t_network=4.0, t_compute=8.0, t_ro=1.0, t_g=0.5
        )
        cal.observe("knn", "repo", "hpc", raw, (2.0, 4.0, 16.0))
        corrected = cal.correct("knn", "repo", "hpc", raw)
        assert corrected.t_ro == pytest.approx(2.0)
        assert corrected.t_g == pytest.approx(1.0)


class TestSnapshot:
    def test_snapshot_is_sorted_and_keyed(self):
        cal = OnlineCalibrator(alpha=1.0)
        cal.observe("knn", "repo", "hpc", RAW, (2.0, 4.0, 16.0))
        snap = cal.snapshot()
        assert set(snap) == {"disk", "network", "compute"}
        assert snap["compute"] == {"knn @ hpc": 2.0}
        assert snap["network"] == {"knn @ repo->hpc": 1.0}

    def test_empty_snapshot(self):
        assert OnlineCalibrator().snapshot() == {}


# ----------------------------------------------------------------------
# Property: the correction is the factor arithmetic, exactly.
# ----------------------------------------------------------------------

_APPS = st.sampled_from(["kmeans", "knn"])
_REPLICAS = st.sampled_from(["repo-a", "repo-b"])
_COMPUTES = st.sampled_from(["hpc-1", "hpc-2"])
_TIMES = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)
)
_RAWS = st.builds(
    PredictedBreakdown,
    t_disk=_TIMES,
    t_network=_TIMES,
    t_compute=_TIMES,
    t_ro=_TIMES,
    t_g=_TIMES,
)
#: ``("observe", ...)`` folds a run in; ``("check", ...)`` compares the
#: corrections with the factors in between (so a later observation must
#: show up in the next check).
_CALIBRATION_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"), _APPS, _REPLICAS, _COMPUTES, _RAWS,
            st.tuples(
                _TIMES, _TIMES, st.one_of(_TIMES, st.just(-1.0))
            ),
        ),
        st.tuples(st.just("check"), _APPS, _REPLICAS, _COMPUTES, _RAWS),
    ),
    max_size=40,
)


def _bits(breakdown):
    return tuple(
        value.hex()
        for value in (
            breakdown.t_disk,
            breakdown.t_network,
            breakdown.t_compute,
            breakdown.t_ro,
            breakdown.t_g,
        )
    )


def _assert_cached_matches_factors(cal, app, replica, compute, raw):
    expected = raw.scaled(
        cal.factor("disk", app, replica, compute),
        cal.factor("network", app, replica, compute),
        cal.factor("compute", app, replica, compute),
    )
    corrected = cal.correct(app, replica, compute, raw)
    assert _bits(corrected) == _bits(expected)
    total = cal.correct_total(app, replica, compute, raw)
    assert total.hex() == corrected.total.hex()


@settings(max_examples=150, deadline=None)
@given(ops=_CALIBRATION_OPS, probe=_RAWS)
def test_cached_correction_is_the_factor_arithmetic(ops, probe):
    cal = OnlineCalibrator(alpha=0.3)
    for op in ops:
        if op[0] == "observe":
            cal.observe(*op[1:])
        else:
            _assert_cached_matches_factors(cal, *op[1:])
    for app in ("kmeans", "knn"):
        for replica in ("repo-a", "repo-b"):
            for compute in ("hpc-1", "hpc-2"):
                _assert_cached_matches_factors(
                    cal, app, replica, compute, probe
                )
