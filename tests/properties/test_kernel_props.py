"""Property-based tests for the discrete-event kernel.

A random interleaving of ``schedule`` / ``cancel`` / ``step`` /
``run(until)`` operations is applied simultaneously to the real kernel
and to a naive reference model (a flat list with eager selection of the
minimum ``(time, seq)`` entry).  Fire order, ``pending_count``, and the
clock must agree at every step — for the plain kernel and a variant
with an aggressive compaction threshold, so heap compaction is
exercised by short programs and provably never drops or reorders live
events.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator


class EagerCompactSimulator(Simulator):
    """Compacts after four in-heap cancels instead of 64, so the random
    programs hit the compaction path constantly."""

    _COMPACT_MIN = 4


KERNELS = [
    ("plain", lambda: Simulator()),
    ("eager-compact", lambda: EagerCompactSimulator()),
]

# Mix continuous delays with a few fixed values so same-time ties (the
# seq tie-break path) actually occur.
delays = st.one_of(st.floats(min_value=0.0, max_value=8.0),
                   st.sampled_from((0.0, 0.5, 1.0, 2.0)))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=199)),
        st.tuples(st.just("run_until"), delays),
        st.tuples(st.just("step"), st.just(0.0)),
    ),
    max_size=60)


class ReferenceModel:
    """The obviously-correct kernel: a flat list, linear scans, eager
    state tracking.  Entries are ``[time, seq, index, state]``."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.fired = []
        self._seq = 0

    def schedule(self, delay):
        self.entries.append(
            [self.now + delay, self._seq, len(self.entries), "live"])
        self._seq += 1

    def state(self, index):
        return self.entries[index][3]

    def cancel(self, index):
        if self.entries[index][3] == "live":
            self.entries[index][3] = "cancelled"

    def pending(self):
        return sum(1 for entry in self.entries if entry[3] == "live")

    def _next_live(self):
        live = [entry for entry in self.entries if entry[3] == "live"]
        return min(live, key=lambda entry: (entry[0], entry[1])) \
            if live else None

    def step(self):
        entry = self._next_live()
        if entry is None:
            return
        entry[3] = "fired"
        if entry[0] > self.now:
            self.now = entry[0]
        self.fired.append(entry[2])

    def run_until(self, until):
        while True:
            entry = self._next_live()
            if entry is None or entry[0] > until:
                break
            self.step()
        if self.now < until:
            self.now = until

    def run_all(self):
        while self._next_live() is not None:
            self.step()


@pytest.mark.parametrize("name,factory", KERNELS, ids=[k for k, _ in KERNELS])
class TestKernelAgainstModel:
    @settings(max_examples=50, deadline=None)
    @given(program=operations)
    def test_interleaving_matches_reference(self, name, factory, program):
        sim = factory()
        model = ReferenceModel()
        fired = []
        handles = []

        for op, value in program:
            if op == "schedule":
                index = len(handles)
                handles.append(sim.schedule_after(
                    value, fired.append, args=(index,)))
                model.schedule(value)
            elif op == "cancel":
                if not handles:
                    continue
                index = int(value) % len(handles)
                # In-tree callers null or guard their dead handles
                # (fired, or cancelled and since collected), so the
                # program only cancels live entries.
                if model.state(index) != "live":
                    continue
                handles[index].cancel()
                model.cancel(index)
            elif op == "run_until":
                until = model.now + value
                sim.run(until=until)
                model.run_until(until)
            else:  # step
                sim.step()
                model.step()
            assert sim.pending_count() == model.pending()
            assert sim.now == model.now
            assert fired == model.fired

        sim.run()
        model.run_all()
        assert fired == model.fired
        assert sim.pending_count() == model.pending() == 0
        assert sim.events_executed == len(model.fired)


#: Few distinct instants and every priority, so events tie on time and
#: on (time, priority) and the order falls through to ``seq``.
TIMES = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
PRIORITIES = tuple(EventPriority)


class TestHeapOrder:
    """Whatever way an event entered the heap — ``schedule_at``, a bulk
    ``schedule_many`` (re-heapified), a small one (pushed one by one),
    after a compaction — the kernel fires the live events in
    ``sorted((time, priority, seq))`` order across chunked
    ``run(until=)`` calls."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_fires_in_time_priority_seq_order(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        live = {}

        def schedule_at(time):
            event = sim.schedule_at(time, fired.append,
                                    args=(len(live),),
                                    priority=rng.choice(PRIORITIES))
            live[len(live)] = event

        def schedule_many(count, floor):
            specs = [(floor + rng.choice(TIMES), fired.append,
                      (len(live) + k,), rng.choice(PRIORITIES), "")
                     for k in range(count)]
            for event in sim.schedule_many(specs):
                live[len(live)] = event

        # A push-path batch goes in after the last heapify (a bulk
        # batch or a compaction rebuilds the whole heap).
        for _ in range(rng.randint(150, 250)):
            schedule_at(rng.choice(TIMES) + rng.choice((0.0, 10.0)))
        schedule_many(len(sim._heap) // 2 + 1, 0.0)        # bulk path
        # Cancel well past ``_COMPACT_MIN`` and half the heap.
        doomed = rng.sample(sorted(live), k=len(live) * 3 // 5)
        for index in doomed:
            live[index].cancel()
        assert sim.compactions >= 1
        schedule_many(rng.randint(1, 20), 0.0)            # push path

        for until in (1.5, 4.0, 9.0):
            sim.run(until=until)
            # Everything scheduled from here on lies past every event
            # fired so far, so the whole firing sequence stays sorted.
            schedule_many(len(sim._heap) + 1, until)
            schedule_at(until + rng.choice(TIMES))
            schedule_many(rng.randint(1, 5), until)
            victim = rng.choice(sorted(live))
            if live[victim].in_heap:
                live[victim].cancel()
                doomed.append(victim)
        sim.run()

        keys = [(e.time, e.priority, e.seq) for e in live.values()]
        cancelled = set(doomed)
        expected = sorted(k for index, k in enumerate(keys)
                          if index not in cancelled)
        assert [keys[index] for index in fired] == expected
