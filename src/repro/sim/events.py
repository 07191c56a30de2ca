"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a callback scheduled at a point in simulated *true*
time.  Events are totally ordered by ``(time, priority, seq)`` so that
simulations are deterministic: ties in time are broken first by an
explicit priority and then by insertion order.

This module is the innermost hot path of every experiment campaign —
millions of events are created, compared, and fired per run — so
:class:`Event` is a ``__slots__`` class with a plain mutable
``cancelled`` flag and a comparison that touches fields directly
instead of building tuples.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventPriority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values run first.  The distinct levels make interleavings at
    identical timestamps deterministic and intuitive:

    * ``DELIVERY`` — network deliveries happen before timers so a message
      arriving "exactly" at a timer expiry is processed first (matching
      the paper's figures, where message receipt at the blocking-period
      boundary counts as inside the period).
    * ``TIMER`` — local-clock alarms (checkpointing timers).
    * ``ACTION`` — workload/application actions.
    * ``CONTROL`` — fault injection, observers, end-of-run hooks.
    """

    DELIVERY = 0
    TIMER = 1
    ACTION = 2
    CONTROL = 3


class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)``; ``cancelled`` is a
    plain mutable flag the kernel checks when the event reaches the
    head of the heap.  ``sim`` back-references the owning
    :class:`~repro.sim.kernel.Simulator` (``None`` for free-standing
    events) so :meth:`cancel` can keep the kernel's live-event
    accounting exact; ``in_heap`` tracks whether the event currently
    sits in that simulator's queue.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "label",
                 "cancelled", "sim", "in_heap")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: tuple = (),
                 label: str = "") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        self.sim = None
        self.in_heap = False

    def __lt__(self, other: "Event") -> bool:
        # Field-direct comparison: no tuple construction on the heap's
        # hottest operation.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, label={self.label!r}{state})")

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None and self.in_heap:
            sim._note_cancel()

    def fire(self) -> None:
        """Invoke the callback (the kernel calls this; tests may too)."""
        self.callback(*self.args)


class EventSequencer:
    """A monotonic source of event sequence numbers.

    Each :class:`~repro.sim.kernel.Simulator` owns one, so tie-break
    order never leaks between simulator instances in the same Python
    process.  Code that builds events without a simulator (tests,
    tooling) can construct its own sequencer for the same isolation.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def __call__(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def reset(self, start: int = 0) -> None:
        """Rewind the sequence (fresh-run determinism for tooling)."""
        self._next = start


#: Fallback sequencer for :func:`make_event` calls that supply neither
#: ``seq`` nor ``sequencer``.  Simulators never draw from it (each owns
#: an :class:`EventSequencer`), so it only orders free-standing events;
#: :func:`reset_event_sequence` rewinds it between independent runs.
_fallback_sequencer = EventSequencer()


def reset_event_sequence(start: int = 0) -> None:
    """Reset the module fallback sequence used by :func:`make_event`."""
    _fallback_sequencer.reset(start)


def make_event(
    time: float,
    callback: Callable[..., Any],
    args: tuple = (),
    priority: int = EventPriority.ACTION,
    label: str = "",
    seq: Optional[int] = None,
    sequencer: Optional[EventSequencer] = None,
) -> Event:
    """Construct a free-standing :class:`Event`.

    ``seq`` may be pinned explicitly by tests that need to control
    tie-break order; ``sequencer`` scopes automatic numbering to the
    caller (a fresh :class:`EventSequencer` per logical run).  With
    neither, a module-level fallback sequencer is used — reset it with
    :func:`reset_event_sequence` when cross-run isolation matters.
    """
    if seq is None:
        seq = (sequencer if sequencer is not None else _fallback_sequencer)()
    return Event(time, int(priority), seq, callback, args, label)
