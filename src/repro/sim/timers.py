"""Local-clock alarms on top of :class:`~repro.sim.clock.DriftingClock`.

The TB checkpointing protocols set their next checkpoint at a *local*
time (``dCKPT_time = dCKPT_time + Delta`` in the paper's Fig. 5).  A
:class:`TimerService` converts local deadlines into true-time simulator
events, and transparently re-converts pending alarms whenever its clock
is resynchronized (a resync shifts the mapping between local and true
time, so the original conversion becomes stale).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, Optional

from ..errors import SchedulingError
from .clock import DriftingClock
from .events import Event, EventPriority
from .kernel import Simulator


@dataclasses.dataclass
class Alarm:
    """Handle for a pending local-time alarm."""

    alarm_id: int
    local_deadline: float
    callback: Callable[..., Any]
    args: tuple
    label: str
    #: The pending simulator event; let go of once it fired or was
    #: cancelled (it points back here: a cycle otherwise).
    event: Optional[Event] = None
    fired: bool = False
    cancelled: bool = False

    def cancel(self) -> None:
        """Cancel the alarm; a no-op if it already fired or was
        cancelled (the event handle may since have been recycled)."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        if self.event is not None:
            self.event.cancel()
            self.event = None


class TimerService:
    """Schedules callbacks at local-clock deadlines.

    One service per process/node.  Alarms survive clock
    resynchronizations: when the underlying clock is re-anchored, every
    pending alarm's true-time event is cancelled and the whole set is
    rescheduled in one bulk kernel call from the new mapping.  A
    deadline that is already in the (local) past after a resync fires
    immediately.
    """

    def __init__(self, sim: Simulator, clock: DriftingClock) -> None:
        self._sim = sim
        self._clock = clock
        self._alarms: Dict[int, Alarm] = {}
        self._ids = itertools.count(1)
        clock.on_resync(self._handle_resync)

    @property
    def clock(self) -> DriftingClock:
        """The local clock deadlines are interpreted against."""
        return self._clock

    def set_alarm(self, local_deadline: float, callback: Callable[..., Any],
                  args: tuple = (), label: str = "") -> Alarm:
        """Schedule ``callback(*args)`` when the local clock reads
        ``local_deadline``.  Deadlines at or before the current local
        time fire at the current true time (not an error — the TB
        protocol re-arms its periodic timer with absolute local
        deadlines that may have just been overrun)."""
        alarm = Alarm(alarm_id=next(self._ids), local_deadline=local_deadline,
                      callback=callback, args=args, label=label)
        self._alarms[alarm.alarm_id] = alarm
        self._arm(alarm)
        return alarm

    def set_alarm_after(self, local_delay: float, callback: Callable[..., Any],
                        args: tuple = (), label: str = "") -> Alarm:
        """Schedule relative to the current local-clock reading."""
        if local_delay < 0:
            raise SchedulingError(f"negative local delay {local_delay} for {label!r}")
        return self.set_alarm(self._clock.now() + local_delay, callback,
                              args=args, label=label)

    def pending(self) -> int:
        """Number of alarms that have neither fired nor been cancelled."""
        return sum(1 for a in self._alarms.values() if not a.fired and not a.cancelled)

    def cancel_all(self) -> None:
        """Cancel every pending alarm (used when a node crashes)."""
        for alarm in self._alarms.values():
            if not alarm.fired:
                alarm.cancel()

    # ------------------------------------------------------------------
    def _arm(self, alarm: Alarm) -> None:
        true_deadline = self._clock.true_time_of(alarm.local_deadline)
        true_deadline = max(true_deadline, self._sim.now)
        alarm.event = self._sim.schedule_at(
            true_deadline, self._fire, args=(alarm,),
            priority=EventPriority.TIMER, label="alarm")

    def _fire(self, alarm: Alarm) -> None:
        if alarm.cancelled or alarm.fired:
            return
        alarm.fired = True
        alarm.event = None
        self._alarms.pop(alarm.alarm_id, None)
        alarm.callback(*alarm.args)

    def _handle_resync(self, _clock: DriftingClock) -> None:
        # Re-anchor every pending alarm in one bulk kernel call: cancel
        # the stale events, then hand the kernel the full batch of
        # re-converted deadlines (sequence numbers are assigned in the
        # same alarm order a per-alarm loop would produce, so tie-break
        # determinism is unchanged).
        pending = [alarm for alarm in self._alarms.values()
                   if not alarm.fired and not alarm.cancelled]
        if not pending:
            return
        true_time_of = self._clock.true_time_of
        fire = self._fire
        timer_priority = EventPriority.TIMER
        now = self._sim.now
        specs = []
        for alarm in pending:
            if alarm.event is not None:
                alarm.event.cancel()
            deadline = true_time_of(alarm.local_deadline)
            if deadline < now:
                deadline = now
            specs.append((deadline, fire, (alarm,), timer_priority, "alarm"))
        for alarm, event in zip(pending, self._sim.schedule_many(specs)):
            alarm.event = event
