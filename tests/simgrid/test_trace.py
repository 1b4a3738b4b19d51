"""Tests for execution-time breakdowns."""

import functools
import operator

import pytest
from hypothesis import given, strategies as st

from repro.simgrid.errors import ConfigurationError
from repro.simgrid.trace import PassRecord, TimeBreakdown, left_sum

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def make_pass(index=0, **kw):
    defaults = dict(
        t_disk=1.0, t_network=2.0, t_local_compute=3.0, t_cache=0.5,
        t_ro=0.25, t_g=0.125,
    )
    defaults.update(kw)
    return PassRecord(index=index, **defaults)


class TestPassRecord:
    def test_compute_includes_cache_ro_g(self):
        record = make_pass()
        assert record.t_compute == pytest.approx(3.0 + 0.5 + 0.25 + 0.125)

    def test_total_is_additive(self):
        record = make_pass()
        assert record.total == pytest.approx(
            record.t_disk + record.t_network + record.t_compute
        )

    def test_negative_component_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pass(t_disk=-1.0)

    @given(nonneg, nonneg, nonneg, nonneg, nonneg, nonneg)
    def test_total_nonnegative(self, d, n, lc, ca, ro, g):
        record = PassRecord(0, d, n, lc, ca, ro, g)
        assert record.total >= 0


class TestTimeBreakdown:
    def test_aggregates_over_passes(self):
        bd = TimeBreakdown()
        bd.add_pass(make_pass(0))
        bd.add_pass(make_pass(1, t_disk=0.0, t_network=0.0))
        assert bd.num_passes == 2
        assert bd.t_disk == pytest.approx(1.0)
        assert bd.t_network == pytest.approx(2.0)
        assert bd.t_ro == pytest.approx(0.5)
        assert bd.t_g == pytest.approx(0.25)
        assert bd.t_cache == pytest.approx(1.0)
        assert bd.total == pytest.approx(bd.t_disk + bd.t_network + bd.t_compute)

    def test_empty_breakdown_is_zero(self):
        bd = TimeBreakdown()
        assert bd.total == 0.0
        assert bd.num_passes == 0


class TestLeftSum:
    """``left_sum`` is ``sum()`` as Python 3.11 evaluates it, everywhere."""

    @pytest.mark.parametrize(
        "values, expected",
        [
            # From Python 3.12 ``sum()`` is compensated and returns 1.0 and
            # 1.0 here: the left fold keeps the 3.11 bits.
            ([0.1] * 10, 0.9999999999999999),
            ([1e16, 1.0, -1e16], 0.0),
        ],
    )
    def test_inputs_where_compensated_sum_differs(self, values, expected):
        assert left_sum(values).hex() == expected.hex()
        assert left_sum(iter(values)).hex() == expected.hex()

    def test_empty_is_the_int_zero_like_sum(self):
        assert repr(left_sum([])) == "0"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    def test_is_the_left_fold(self, values):
        expected = functools.reduce(operator.add, values, 0)
        assert repr(left_sum(values)) == repr(expected)

    def test_breakdown_totals_fold_passes_in_order(self):
        bd = TimeBreakdown()
        for index in range(10):
            bd.add_pass(make_pass(index, t_disk=0.1))
        assert bd.t_disk == 0.9999999999999999
