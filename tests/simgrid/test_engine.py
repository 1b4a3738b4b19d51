"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.simgrid.engine import Event, Simulator
from repro.simgrid.errors import EngineError


class TestSimulator:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_last_event(self):
        sim = Simulator()
        sim.schedule(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [("first", 1.0), ("second", 3.0)]

    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        hits = []
        event = sim.schedule(1.0, hits.append, "x")
        event.cancel()
        sim.run()
        assert hits == []
        assert sim.processed_events == 0

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, "early")
        sim.schedule(10.0, hits.append, "late")
        sim.run(until=5.0)
        assert hits == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert hits == ["early", "late"]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(EngineError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(EngineError):
            sim.schedule_at(5.0, lambda: None)

    def test_run_backwards_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(EngineError):
            sim.run(until=5.0)

    def test_advance(self):
        sim = Simulator()
        sim.advance(2.5)
        assert sim.now == 2.5
        with pytest.raises(EngineError):
            sim.advance(-1.0)

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_pending_events_counts_queue(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
    def test_processed_count_matches_schedule_count(self, delays):
        # Oracle: with every fifth event cancelled, the drain runs the
        # rest in (time, schedule index) order, each exactly once.
        sim = Simulator()
        order = []
        events = [sim.schedule(d, order.append, i) for i, d in enumerate(delays)]
        for event in events[::5]:
            event.cancel()
        sim.run()
        live = [i for i in range(len(delays)) if i % 5]
        assert order == sorted(live, key=lambda i: (delays[i], i))
        assert sim.processed_events == len(live)


class TestEvent:
    def test_orders_by_time_then_seq(self):
        a = Event(1.0, 0, lambda: None)
        b = Event(1.0, 1, lambda: None)
        c = Event(0.5, 2, lambda: None)
        assert c < a < b


class TestSimulatorEdgeCases:
    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        hits = []
        head = sim.schedule(1.0, hits.append, "cancelled")
        sim.schedule(2.0, hits.append, "kept")
        head.cancel()
        sim.run(until=5.0)
        assert hits == ["kept"]
        assert sim.now == 5.0

    def test_schedule_at_exactly_now_is_allowed(self):
        sim = Simulator(start_time=3.0)
        hits = []
        sim.schedule_at(3.0, hits.append, "now")
        sim.run()
        assert hits == ["now"]
        assert sim.now == 3.0

    def test_run_until_boundary_event_executes(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, hits.append, "boundary")
        sim.run(until=5.0)
        assert hits == ["boundary"]
