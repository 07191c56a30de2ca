"""Unit tests for the event primitives.  How schedulers order events is
held on both backends by
``tests/runtime/test_conformance.py::TestSchedulerConformance``."""

from repro.sim.events import Event, EventPriority, EventSequencer


def _noop():
    pass


def _event(time, sequencer, callback=_noop, args=(),
           priority=EventPriority.ACTION, label=""):
    return Event(time, int(priority), sequencer(), callback, args, label)


class TestCancellation:
    def test_not_cancelled_initially(self):
        event = _event(1.0, EventSequencer())
        assert not event.cancelled

    def test_cancel_marks(self):
        event = _event(1.0, EventSequencer())
        event.cancel()
        assert event.cancelled

    def test_cancel_is_idempotent(self):
        event = _event(1.0, EventSequencer())
        event.cancel()
        event.cancel()
        assert event.cancelled


class TestFire:
    def test_fire_invokes_callback_with_args(self):
        got = []
        event = _event(1.0, EventSequencer(), got.append, args=("x",))
        event.fire()
        assert got == ["x"]

    def test_label_is_preserved(self):
        event = _event(1.0, EventSequencer(), label="hello")
        assert event.label == "hello"


class TestSequencerScoping:
    def test_own_sequencer_numbers_from_zero(self):
        sequencer = EventSequencer()
        a = _event(1.0, sequencer)
        b = _event(1.0, sequencer)
        assert (a.seq, b.seq) == (0, 1)

    def test_sequencers_are_independent(self):
        first = EventSequencer()
        second = EventSequencer()
        _event(1.0, first)
        assert _event(1.0, second).seq == 0

    def test_fresh_simulators_restart_sequences(self):
        from repro.sim.kernel import Simulator
        first = Simulator().schedule_at(1.0, _noop)
        second = Simulator().schedule_at(1.0, _noop)
        assert first.seq == second.seq == 0
