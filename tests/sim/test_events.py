"""Unit tests for the event primitives."""

from repro.sim.events import (
    EventPriority,
    EventSequencer,
    make_event,
    reset_event_sequence,
)


def _noop():
    pass


class TestOrdering:
    def test_orders_by_time(self):
        early = make_event(1.0, _noop)
        late = make_event(2.0, _noop)
        assert early < late
        assert not late < early

    def test_same_time_orders_by_priority(self):
        delivery = make_event(1.0, _noop, priority=EventPriority.DELIVERY)
        timer = make_event(1.0, _noop, priority=EventPriority.TIMER)
        action = make_event(1.0, _noop, priority=EventPriority.ACTION)
        control = make_event(1.0, _noop, priority=EventPriority.CONTROL)
        assert delivery < timer < action < control

    def test_same_time_same_priority_orders_by_insertion(self):
        first = make_event(1.0, _noop)
        second = make_event(1.0, _noop)
        assert first < second

    def test_explicit_seq_pins_tiebreak(self):
        a = make_event(1.0, _noop, seq=10)
        b = make_event(1.0, _noop, seq=5)
        assert b < a

    def test_priority_beats_insertion_order(self):
        later_inserted = make_event(1.0, _noop, priority=EventPriority.DELIVERY)
        # Insert another afterwards with a lower-urgency priority.
        earlier_priority = make_event(1.0, _noop, priority=EventPriority.CONTROL)
        assert later_inserted < earlier_priority


class TestCancellation:
    def test_not_cancelled_initially(self):
        event = make_event(1.0, _noop)
        assert not event.cancelled

    def test_cancel_marks(self):
        event = make_event(1.0, _noop)
        event.cancel()
        assert event.cancelled

    def test_cancel_is_idempotent(self):
        event = make_event(1.0, _noop)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_cancelled_flag_does_not_affect_ordering(self):
        a = make_event(1.0, _noop)
        b = make_event(2.0, _noop)
        a.cancel()
        assert a < b


class TestFire:
    def test_fire_invokes_callback_with_args(self):
        got = []
        event = make_event(1.0, got.append, args=("x",))
        event.fire()
        assert got == ["x"]

    def test_label_is_preserved(self):
        event = make_event(1.0, _noop, label="hello")
        assert event.label == "hello"


class TestSequencerScoping:
    def test_own_sequencer_numbers_from_zero(self):
        sequencer = EventSequencer()
        a = make_event(1.0, _noop, sequencer=sequencer)
        b = make_event(1.0, _noop, sequencer=sequencer)
        assert (a.seq, b.seq) == (0, 1)
        assert a < b

    def test_sequencers_are_independent(self):
        first = EventSequencer()
        second = EventSequencer()
        make_event(1.0, _noop, sequencer=first)
        assert make_event(1.0, _noop, sequencer=second).seq == 0

    def test_fallback_sequence_resets(self):
        reset_event_sequence()
        a = make_event(1.0, _noop)
        reset_event_sequence()
        b = make_event(1.0, _noop)
        assert a.seq == b.seq

    def test_simulator_does_not_consume_fallback(self):
        # Simulators own their sequence; building one and scheduling on
        # it must not advance the make_event fallback.
        from repro.sim.kernel import Simulator
        reset_event_sequence()
        sim = Simulator()
        sim.schedule_at(1.0, _noop)
        sim.schedule_at(2.0, _noop)
        assert make_event(1.0, _noop).seq == 0

    def test_fresh_simulators_restart_sequences(self):
        from repro.sim.kernel import Simulator
        first = Simulator().schedule_at(1.0, _noop)
        second = Simulator().schedule_at(1.0, _noop)
        assert first.seq == second.seq == 0
