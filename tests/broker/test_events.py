"""Discrete-event primitives: queue ordering and busy-window accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.events import (
    Event,
    EventKind,
    EventQueue,
    GridLedger,
    NodeWindow,
    SitePool,
)
from repro.simgrid.errors import ConfigurationError


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(Event(2.0, EventKind.ARRIVAL, "late"))
        q.push(Event(1.0, EventKind.ARRIVAL, "early"))
        assert q.pop().payload == "early"
        assert q.pop().payload == "late"

    def test_completion_drains_before_arrival_at_equal_time(self):
        # Nodes freed at t must be visible to a job arriving at t.
        q = EventQueue()
        q.push(Event(1.0, EventKind.ARRIVAL, "arrival"))
        q.push(Event(1.0, EventKind.COMPLETION, "completion"))
        assert q.pop().payload == "completion"
        assert q.pop().payload == "arrival"

    def test_ties_break_on_insertion_order(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.ARRIVAL, "first"))
        q.push(Event(1.0, EventKind.ARRIVAL, "second"))
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigurationError):
            EventQueue().push(Event(-0.1, EventKind.ARRIVAL))

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigurationError):
            EventQueue().pop()

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(Event(0.0, EventKind.ARRIVAL))
        assert q and len(q) == 1


#: A push of ``(time, kind)`` or a pop (``None``).  Integral times make
#: equal-time ties, and with them the kind and insertion-order ranks,
#: common.
_QUEUE_OPS = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.one_of(
                st.integers(0, 4).map(float),
                st.floats(0.0, 4.0, allow_nan=False),
            ),
            st.sampled_from(EventKind),
        ),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_QUEUE_OPS)
def test_heap_drains_like_a_sorted_list(ops):
    """The heap against its specification: a plain list kept sorted on
    ``(time, kind, insertion seq)``, popped from the front."""
    queue = EventQueue()
    model = []
    peak = pushed = 0
    for op in ops:
        if op is None:
            if not model:
                with pytest.raises(ConfigurationError):
                    queue.pop()
                continue
            time, kind, seq = model.pop(0)
            event = queue.pop()
            assert (event.time, event.kind, event.payload) == (time, kind, seq)
        else:
            time, kind = op
            queue.push(Event(time, kind, pushed))
            model.append((time, kind, pushed))
            model.sort()
            pushed += 1
            peak = max(peak, len(model))
        assert len(queue) == len(model)
        assert (queue.peak_depth, queue.total_pushed) == (peak, pushed)
    drained = []
    while queue:
        drained.append(queue.pop().payload)
    assert drained == [seq for _, _, seq in model]


class TestSitePool:
    def test_acquires_lowest_free_indices(self):
        pool = SitePool("site", 4)
        assert pool.acquire(2, "j1", 0.0, 1.0) == (0, 1)
        assert pool.acquire(1, "j2", 0.0, 1.0) == (2,)
        assert pool.free_count == 1

    def test_release_returns_nodes(self):
        pool = SitePool("site", 4)
        taken = pool.acquire(3, "j1", 0.0, 1.0)
        pool.release(taken)
        assert pool.free_count == 4
        # freed nodes are reused lowest-first
        assert pool.acquire(2, "j2", 1.0, 2.0) == (0, 1)

    def test_acquire_beyond_capacity_raises(self):
        pool = SitePool("site", 2)
        pool.acquire(2, "j1", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            pool.acquire(1, "j2", 0.0, 1.0)

    def test_release_of_free_node_raises(self):
        pool = SitePool("site", 2)
        with pytest.raises(ConfigurationError):
            pool.release((0,))

    def test_windows_record_reservations(self):
        pool = SitePool("site", 4)
        pool.acquire(2, "j1", 0.0, 1.5)
        assert pool.windows == [
            NodeWindow("site", 0, 0.0, 1.5, "j1"),
            NodeWindow("site", 1, 0.0, 1.5, "j1"),
        ]

    def test_empty_or_zero_length_reservation_raises(self):
        pool = SitePool("site", 2)
        with pytest.raises(ConfigurationError):
            pool.acquire(0, "j1", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            pool.acquire(1, "j1", 1.0, 1.0)

    def test_fail_and_repair_bracket_an_outage_record(self):
        pool = SitePool("site", 4)
        pool.fail(1.0)
        assert pool.down
        pool.repair(2.5)
        assert not pool.down
        (outage,) = pool.outages
        assert (outage.start, outage.end, outage.nodes) == (1.0, 2.5, None)
        with pytest.raises(ConfigurationError):
            pool.repair(3.0)

    def test_repair_closes_the_site_record_not_a_later_shrink(self):
        # A shrink during an outage appends its own record *after* the
        # open whole-site one; repair must close the site record and
        # leave the shrink record (and its node list) intact.
        pool = SitePool("site", 4)
        pool.fail(1.0)
        victims = pool.shrink(2, 1.2)
        assert victims == (3, 2)
        pool.restore(victims, 1.4)
        pool.repair(2.0)
        site_record, shrink_record = pool.outages
        assert (site_record.start, site_record.end) == (1.0, 2.0)
        assert site_record.nodes is None
        assert (shrink_record.start, shrink_record.end) == (1.2, 1.4)
        assert shrink_record.nodes == (2, 3)


class TestNodeWindow:
    def test_overlap_same_node(self):
        a = NodeWindow("s", 0, 0.0, 1.0, "j1")
        b = NodeWindow("s", 0, 0.5, 1.5, "j2")
        assert a.overlaps(b) and b.overlaps(a)

    def test_back_to_back_windows_do_not_overlap(self):
        a = NodeWindow("s", 0, 0.0, 1.0, "j1")
        b = NodeWindow("s", 0, 1.0, 2.0, "j2")
        assert not a.overlaps(b)

    def test_different_node_or_site_do_not_overlap(self):
        a = NodeWindow("s", 0, 0.0, 1.0, "j1")
        assert not a.overlaps(NodeWindow("s", 1, 0.0, 1.0, "j2"))
        assert not a.overlaps(NodeWindow("t", 0, 0.0, 1.0, "j2"))


class TestGridLedger:
    def test_unknown_site_raises(self):
        with pytest.raises(ConfigurationError):
            GridLedger({"a": 2}).pool("b")

    def test_all_windows_aggregates_sites(self):
        ledger = GridLedger({"a": 2, "b": 2})
        ledger.pool("b").acquire(1, "j1", 0.0, 1.0)
        ledger.pool("a").acquire(1, "j1", 0.0, 1.0)
        assert [w.site for w in ledger.all_windows()] == ["a", "b"]
