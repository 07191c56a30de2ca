"""The discrete-event simulation kernel.

:class:`Simulator` maintains a priority queue of :class:`~repro.sim.events.Event`
objects and a master *true time* clock.  Everything else in the library —
network delivery, drifting local clocks, checkpoint timers, fault
injection — is expressed as events scheduled on one simulator instance.

The kernel is intentionally small and synchronous: callbacks run to
completion in timestamp order, and the only sources of nondeterminism
are the seeded RNG streams in :mod:`repro.sim.rng`.

It is also the hot path under every experiment campaign, so the run
loop is written for throughput.  A heap entry is the tuple ``(time,
priority, seq, event)`` (the live scheduler's heap holds the same
entries): ``heapq`` orders tuples in C, and ``seq`` is unique, so no
comparison ever reaches the event, which defines none.  Heap operations and counters live in locals,
``run(until=...)`` peeks at the heap head instead of popping and
re-pushing boundary-straddling events, a live-event counter makes
:meth:`pending_count` O(1), and cancelled events are compacted out of
the heap once they outnumber half of it (lazy deletion otherwise keeps
dead entries churning through every sift).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..errors import SchedulingError
from .events import Event, EventPriority

#: One :meth:`Simulator.schedule_many` entry:
#: ``(time, callback, args, priority, label)``.
EventSpec = Tuple[float, Callable[..., Any], tuple, int, str]

#: One heap entry: ``(time, priority, seq, event)``.
HeapEntry = Tuple[float, int, int, Event]


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(1.5, fired.append, args=(1.5,))
    >>> _ = sim.schedule_at(0.5, fired.append, args=(0.5,))
    >>> sim.run()
    >>> fired
    [0.5, 1.5]
    """

    #: Compaction policy: rebuild the heap once cancelled entries are at
    #: least ``_COMPACT_MIN`` *and* at least half the heap.  The rebuild
    #: is O(n); amortized over the >= n/2 cancels that triggered it the
    #: cost per cancel is O(1), and it keeps sift depth bounded by the
    #: live-event population.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._now: float = 0.0
        self._next_seq = 0
        self._cancelled_in_heap = 0
        self._running = False
        self._stopped = False
        #: Number of events executed so far (cancelled events excluded).
        self.events_executed: int = 0
        #: Diagnostics: how many heap compactions have run.
        self.compactions: int = 0

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulated true time, in seconds."""
        return self._now

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1): the
        kernel maintains a cancelled-in-heap counter)."""
        return len(self._heap) - self._cancelled_in_heap

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if drained."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = EventPriority.ACTION,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute true time ``time``.

        Raises :class:`~repro.errors.SchedulingError` if ``time`` lies in
        the past (events *at* the current time are allowed — they run
        after the currently-executing event).
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event {label!r} at t={time} (now={self._now})"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        priority = int(priority)
        event = Event(time, priority, seq, callback, args, label)
        event.sim = self
        event.in_heap = True
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = EventPriority.ACTION,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of true time."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay} for event {label!r}")
        return self.schedule_at(self._now + delay, callback, args=args,
                                priority=priority, label=label)

    def schedule_many(self, specs: Iterable[EventSpec]) -> List[Event]:
        """Schedule a batch of events in one call.

        ``specs`` entries are ``(time, callback, args, priority, label)``
        tuples; sequence numbers are assigned in iteration order, so the
        batch ties exactly as the equivalent :meth:`schedule_at` loop
        would.  Large batches (at least a quarter of the heap) are
        appended and re-heapified in one O(n) pass instead of paying a
        sift per event — this is the bulk path
        :class:`~repro.sim.timers.TimerService` uses to re-anchor every
        pending alarm after a clock resynchronization.
        """
        now = self._now
        seq = self._next_seq
        events: List[Event] = []
        entries: List[HeapEntry] = []
        for time, callback, args, priority, label in specs:
            if time < now:
                raise SchedulingError(
                    f"cannot schedule event {label!r} at t={time} (now={now})")
            priority = int(priority)
            event = Event(time, priority, seq, callback, args, label)
            event.sim = self
            event.in_heap = True
            entries.append((time, priority, seq, event))
            seq += 1
            events.append(event)
        self._next_seq = seq
        heap = self._heap
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        return events

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue drains.

        Parameters
        ----------
        until:
            If given, stop once the next event's timestamp exceeds
            ``until`` and advance ``now`` to exactly ``until``.  The
            too-late head event is *peeked*, never popped, so a
            boundary-straddling run leaves the heap untouched.
        max_events:
            Safety valve for tests: stop after this many events.
        """
        if self._running:
            raise SchedulingError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if self._stopped:
                    break
                entry = heap[0]
                head = entry[3]
                if head.cancelled:
                    pop(heap)
                    head.in_heap = False
                    self._cancelled_in_heap -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(heap)
                head.in_heap = False
                if time > self._now:
                    self._now = time
                head.callback(*head.args)
                self.events_executed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False

    def step(self) -> Optional[Event]:
        """Execute exactly one live event and return it (``None`` if drained)."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[3]
        event.in_heap = False
        if event.time > self._now:
            self._now = event.time
        event.fire()
        self.events_executed += 1
        return event

    def stop(self) -> None:
        """Request that a currently-executing :meth:`run` stop after the
        current event finishes.  Queued events remain queued."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every queued event — the end of a simulation whose
        remaining future nobody will run.  Each lets go of its callback
        and of the kernel, so a handle someone still holds (an alarm's)
        keeps nothing else alive."""
        if self._running:
            raise SchedulingError("cannot clear a running simulator")
        for entry in self._heap:
            event = entry[3]
            event.in_heap = False
            event.callback = event.sim = None
            event.args = ()
        self._heap.clear()
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for an event still in the heap."""
        count = self._cancelled_in_heap + 1
        self._cancelled_in_heap = count
        if count >= self._COMPACT_MIN and count * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Physically remove cancelled events and re-heapify (in place,
        so aliases of the heap list held by a running loop stay valid)."""
        heap = self._heap
        for entry in heap:
            if entry[3].cancelled:
                entry[3].in_heap = False
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3].in_heap = False
            self._cancelled_in_heap -= 1
