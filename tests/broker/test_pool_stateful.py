"""Stateful differential test: ``SitePool`` against its model oracle.

Random sequences of every pool operation — legal and illegal — are
applied to the production :class:`~repro.broker.events.SitePool`
(grant history, one sorted free list) and to the sorted-list model with
its eager per-node history (``pool_model.py``).  After every
step both must have given the same answer (returned ids, or the same
exception type and message) and show the same ``free_count``,
``windows``, ``outages``, ``down`` flag and number of version ticks.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.broker.events import SitePool
from repro.errors import ReproError

from tests.broker.pool_model import SitePoolModel

JOBS = st.sampled_from(["j1", "j2", "j3"])
#: A coarse grid, so truncation instants land before, inside, on the
#: edges of and after recorded windows.
TIMES = st.integers(0, 12).map(lambda tick: tick / 2.0)


def outcome(call):
    try:
        return ("ok", call())
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


class PoolMachine(RuleBasedStateMachine):
    @initialize(nodes=st.integers(1, 8))
    def build(self, nodes):
        self.nodes = nodes
        self.ticks = 0
        self.pool = SitePool("site", nodes, on_change=self._tick)
        self.model = SitePoolModel("site", nodes)
        self.held = []  # node tuples handed out and not yet released
        self.shrunk = []  # victim tuples not yet restored

    def _tick(self):
        self.ticks += 1

    def both(self, method, *args):
        got = outcome(lambda: getattr(self.pool, method)(*args))
        assert got == outcome(lambda: getattr(self.model, method)(*args))
        return got

    @rule(
        count=st.integers(-1, 9),
        job=JOBS,
        start=TIMES,
        length=st.integers(0, 6).map(lambda tick: tick / 2.0),
    )
    def acquire(self, count, job, start, length):
        status, taken = self.both("acquire", count, job, start, start + length)
        if status == "ok":
            assert taken == tuple(sorted(taken))
            self.held.append(taken)

    @rule(data=st.data())
    def release_held(self, data):
        if self.held:
            index = data.draw(st.integers(0, len(self.held) - 1))
            self.both("release", self.held.pop(index))

    @rule(nodes=st.lists(st.integers(-1, 9), max_size=3, unique=True))
    def release_anything(self, nodes):
        self.both("release", tuple(nodes))

    @rule(job=JOBS, at=TIMES)
    def truncate(self, job, at):
        self.both("truncate_windows", job, at)

    @rule(at=TIMES)
    def fail(self, at):
        self.both("fail", at)

    @rule(at=TIMES)
    def repair(self, at):
        self.both("repair", at)

    @rule(count=st.integers(0, 4), at=TIMES)
    def shrink(self, count, at):
        status, victims = self.both("shrink", count, at)
        if status == "ok" and victims:
            self.shrunk.append(victims)

    @rule(data=st.data(), at=TIMES)
    def restore_shrunk(self, data, at):
        if self.shrunk:
            index = data.draw(st.integers(0, len(self.shrunk) - 1))
            self.both("restore", self.shrunk.pop(index), at)

    @rule(nodes=st.lists(st.integers(0, 8), max_size=3, unique=True), at=TIMES)
    def restore_anything(self, nodes, at):
        self.both("restore", tuple(nodes), at)

    @invariant()
    def same_state(self):
        assert self.pool.free_count == self.model.free_count
        assert self.pool.down == self.model.down
        assert self.pool.windows == self.model.windows
        assert self.pool.outages == self.model.outages
        assert self.ticks == self.model.changes


PoolMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestSitePoolAgainstModel = PoolMachine.TestCase
