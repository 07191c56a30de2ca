"""Single-threaded wall-clock scheduler — the live
:class:`~repro.runtime.ports.SchedulerPort`.

The protocol layer schedules callbacks against true time; on the live
backend true time is the wall clock, and the event loop (the agent's
``select`` loop) interleaves due callbacks with socket and control-pipe
I/O.  The surface mirrors :class:`~repro.sim.kernel.Simulator` where the
protocol layer touches it (``now``, ``schedule_at``, ``schedule_after``,
``schedule_many``, cancellable events) with one semantic difference: a
deadline already in the past fires on the next loop turn instead of
raising — wall time, unlike simulated time, moves between the decision
to schedule and the call.  The heap holds the kernel's own ``(time,
priority, seq, event)`` entries over :class:`~repro.sim.events.Event`,
numbered by an :class:`~repro.sim.events.EventSequencer`: one order on
both backends, same tombstone cancellation (with no simulator
attached, ``Event.cancel`` only sets the flag).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..sim.events import Event, EventPriority, EventSequencer
from ..sim.kernel import HeapEntry


class LiveScheduler:
    """Heap of wall-clock deadlines, drained by the owning loop."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._heap: List[HeapEntry] = []
        self._seq = EventSequencer()
        self.fired = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._clock.now()

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    args: tuple = (), priority: EventPriority = EventPriority.ACTION,
                    label: str = "") -> Event:
        order = (max(time, self.now), int(priority), self._seq())
        event = Event(*order, callback, args, label)
        heapq.heappush(self._heap, (*order, event))
        return event

    def schedule_after(self, delay: float, callback: Callable[..., Any],
                       args: tuple = (), priority: EventPriority = EventPriority.ACTION,
                       label: str = "") -> Event:
        return self.schedule_at(self.now + max(delay, 0.0), callback,
                                args=args, priority=priority, label=label)

    def schedule_many(self, specs: Sequence[Tuple]) -> List[Event]:
        return [self.schedule_at(time, callback, args=args,
                                 priority=priority, label=label)
                for time, callback, args, priority, label in specs]

    # ------------------------------------------------------------------
    def run_due(self, limit: int = 10_000) -> Optional[float]:
        """Fire every event due at the current wall time, in (time,
        priority, seq) order; returns seconds until the next pending
        event (``None`` when the heap is empty) so the I/O loop can size
        its select timeout.  ``limit`` bounds one drain against
        callbacks that keep scheduling due work.
        """
        fired = 0
        while self._heap and fired < limit:
            time, _priority, _seq, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if time > self.now:
                break
            heapq.heappop(self._heap)
            fired += 1
            self.fired += 1
            event.callback(*event.args)
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return max(0.0, self._heap[0][0] - self.now)

    def pending_within(self, horizon: float,
                       exclude_prefix: str = "_infra") -> List[Event]:
        """Non-cancelled events due within ``horizon`` seconds, minus
        infrastructure events — the quiesce probe: a process is idle
        when nothing protocol-originated is about to fire.  (Parked
        periodic timers and workload actions sit far outside any
        reasonable horizon; heartbeat/retry events carry the
        infrastructure label prefix.)"""
        cutoff = self.now + horizon
        return [event for time, _priority, _seq, event in self._heap
                if not event.cancelled and time <= cutoff
                and not event.label.startswith(exclude_prefix)]
