"""Unit tests for the event primitives."""

from repro.sim.events import Event, EventPriority, EventSequencer


def _noop():
    pass


def _event(time, sequencer, callback=_noop, args=(),
           priority=EventPriority.ACTION, label=""):
    return Event(time, int(priority), sequencer(), callback, args, label)


class TestOrdering:
    def test_orders_by_time(self):
        seq = EventSequencer()
        early = _event(1.0, seq)
        late = _event(2.0, seq)
        assert early < late
        assert not late < early

    def test_same_time_orders_by_priority(self):
        seq = EventSequencer()
        delivery = _event(1.0, seq, priority=EventPriority.DELIVERY)
        timer = _event(1.0, seq, priority=EventPriority.TIMER)
        action = _event(1.0, seq, priority=EventPriority.ACTION)
        control = _event(1.0, seq, priority=EventPriority.CONTROL)
        assert delivery < timer < action < control

    def test_same_time_same_priority_orders_by_insertion(self):
        seq = EventSequencer()
        first = _event(1.0, seq)
        second = _event(1.0, seq)
        assert first < second

    def test_explicit_seq_pins_tiebreak(self):
        a = Event(1.0, int(EventPriority.ACTION), 10, _noop)
        b = Event(1.0, int(EventPriority.ACTION), 5, _noop)
        assert b < a

    def test_priority_beats_insertion_order(self):
        seq = EventSequencer()
        later_inserted = _event(1.0, seq, priority=EventPriority.DELIVERY)
        # Insert another afterwards with a lower-urgency priority.
        earlier_priority = _event(1.0, seq, priority=EventPriority.CONTROL)
        assert later_inserted < earlier_priority


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

    def test_cancelled_flag_does_not_affect_ordering(self):
        seq = EventSequencer()
        a = _event(1.0, seq)
        b = _event(2.0, seq)
        a.cancel()
        assert a < b


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
        assert a < b

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
