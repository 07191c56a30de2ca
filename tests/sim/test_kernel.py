"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_in_past_raises(self, sim):
        sim.schedule_at(5.0, lambda: sim.stop())
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_current_time_is_allowed(self, sim):
        fired = []
        def outer():
            sim.schedule_at(sim.now, lambda: fired.append("inner"))
        sim.schedule_at(1.0, outer)
        sim.run()
        assert fired == ["inner"]

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_after(-0.1, lambda: None)

    def test_schedule_after_offsets_from_now(self, sim):
        times = []
        sim.schedule_at(3.0, lambda: sim.schedule_after(2.0,
                        lambda: times.append(sim.now)))
        sim.run()
        assert times == [5.0]


class TestRun:
    def test_runs_in_time_order(self, sim):
        order = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule_at(t, order.append, args=(t,))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule_at(1.0, fired.append, args=(1,))
        sim.schedule_at(5.0, fired.append, args=(5,))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_keeps_later_events_queued(self, sim):
        fired = []
        sim.schedule_at(5.0, fired.append, args=(5,))
        sim.run(until=2.0)
        sim.run()
        assert fired == [5]

    def test_run_advances_now_to_until_even_when_idle(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_cancelled_events_are_skipped(self, sim):
        fired = []
        event = sim.schedule_at(1.0, fired.append, args=(1,))
        sim.schedule_at(2.0, fired.append, args=(2,))
        event.cancel()
        sim.run()
        assert fired == [2]

    def test_max_events_bounds_execution(self, sim):
        fired = []
        for t in range(5):
            sim.schedule_at(float(t + 1), fired.append, args=(t,))
        sim.run(max_events=2)
        assert len(fired) == 2

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule_at(1.0, fired.append, args=(1,))
        sim.schedule_at(2.0, sim.stop)
        sim.schedule_at(3.0, fired.append, args=(3,))
        sim.run()
        assert fired == [1]
        assert sim.pending_count() == 1

    def test_reentrant_run_raises(self, sim):
        def nested():
            sim.run()
        sim.schedule_at(1.0, nested)
        with pytest.raises(SchedulingError):
            sim.run()

    def test_events_executed_counter(self, sim):
        for t in range(3):
            sim.schedule_at(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_same_time_priority_interleaving(self, sim):
        order = []
        sim.schedule_at(1.0, order.append, args=("action",),
                        priority=EventPriority.ACTION)
        sim.schedule_at(1.0, order.append, args=("delivery",),
                        priority=EventPriority.DELIVERY)
        sim.schedule_at(1.0, order.append, args=("timer",),
                        priority=EventPriority.TIMER)
        sim.run()
        assert order == ["delivery", "timer", "action"]


class TestStepAndPeek:
    def test_step_executes_one_event(self, sim):
        fired = []
        sim.schedule_at(1.0, fired.append, args=(1,))
        sim.schedule_at(2.0, fired.append, args=(2,))
        sim.step()
        assert fired == [1]
        assert sim.now == 1.0

    def test_step_on_empty_returns_none(self, sim):
        assert sim.step() is None

    def test_peek_time(self, sim):
        assert sim.peek_time() is None
        sim.schedule_at(7.0, lambda: None)
        assert sim.peek_time() == 7.0

    def test_peek_skips_cancelled(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0

    def test_pending_count_excludes_cancelled(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.pending_count() == 1


class TestRunUntilBoundary:
    def test_until_peeks_instead_of_popping(self, sim):
        # A boundary-straddling run must leave the heap untouched — the
        # head is peeked, never popped and re-pushed.
        event = sim.schedule_at(5.0, lambda: None)
        before = list(sim._heap)
        sim.run(until=2.0)
        assert sim._heap == before
        assert sim._heap[0] is event
        assert event.in_heap

    def test_chunked_until_runs_preserve_tie_order(self, sim):
        # Same-time same-priority events straddling several until
        # boundaries fire in insertion order, exactly as one run() would.
        order = []
        for k in range(6):
            sim.schedule_at(10.0, order.append, args=(k,))
        for until in (2.0, 4.0, 6.0, 8.0):
            sim.run(until=until)
        assert order == []
        sim.run()
        assert order == list(range(6))


class TestPendingCountAccounting:
    def test_double_cancel_counts_once(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_count() == 1

    def test_cancel_after_step_does_not_corrupt_count(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        stepped = sim.step()
        # The event already left the heap; a late cancel of the handle
        # must not decrement the live counter.
        stepped.cancel()
        assert sim.pending_count() == 1

    def test_count_tracks_mixed_operations(self, sim):
        events = [sim.schedule_at(float(k + 1), lambda: None)
                  for k in range(6)]
        events[1].cancel()
        events[4].cancel()
        sim.step()
        assert sim.pending_count() == 3


class TestClear:
    def test_clear_drops_queued_events_and_late_cancels_are_harmless(
            self, sim):
        fired = []
        kept = sim.schedule_at(1.0, fired.append, args=("a",))
        cancelled = sim.schedule_at(2.0, fired.append, args=("b",))
        cancelled.cancel()
        sim.clear()
        assert sim.pending_count() == 0
        kept.cancel()           # a handle that outlived the queue
        assert sim.pending_count() == 0
        sim.run(until=5.0)
        assert fired == [] and sim.now == 5.0

    def test_clear_refuses_inside_a_run(self, sim):
        sim.schedule_at(1.0, sim.clear)
        with pytest.raises(SchedulingError):
            sim.run()


class TestCompaction:
    def test_compaction_shrinks_heap_and_keeps_live_events(self, sim):
        fired = []
        for k in range(100):
            sim.schedule_at(float(k + 1), fired.append, args=(k,))
        doomed = [sim.schedule_at(1000.0 + k, lambda: None)
                  for k in range(200)]
        for event in doomed:
            event.cancel()
        # The cancelled majority was physically removed...
        assert sim.compactions >= 1
        assert len(sim._heap) < 300
        assert sim.pending_count() == 100
        # ...and no live event was dropped.
        sim.run()
        assert fired == list(range(100))

    def test_few_cancels_stay_lazy(self, sim):
        events = [sim.schedule_at(float(k + 1), lambda: None)
                  for k in range(100)]
        for event in events[:30]:
            event.cancel()
        assert sim.compactions == 0
        assert sim.pending_count() == 70


class TestScheduleMany:
    def _fire_order(self, bulk):
        sim = Simulator()
        order = []
        emit = order.append
        sim.schedule_at(1.0, emit, args=("pre",))
        specs = [(2.0, emit, (k,), EventPriority.TIMER, "") for k in range(8)]
        if bulk:
            sim.schedule_many(specs)
        else:
            for time, callback, args, priority, label in specs:
                sim.schedule_at(time, callback, args=args,
                                priority=priority, label=label)
        sim.schedule_at(2.0, emit, args=("post",))
        sim.run()
        return order

    def test_bulk_and_loop_orders_agree(self):
        assert self._fire_order(bulk=True) == self._fire_order(bulk=False)

    def test_returns_events_in_spec_order(self, sim):
        events = sim.schedule_many(
            [(3.0, lambda: None, (), EventPriority.ACTION, "a"),
             (1.0, lambda: None, (), EventPriority.ACTION, "b")])
        assert [e.label for e in events] == ["a", "b"]
        assert events[0].seq < events[1].seq

    def test_rejects_past_times(self, sim):
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_many(
                [(1.0, lambda: None, (), EventPriority.ACTION, "late")])
