"""Timer resynchronization service.

Time-based checkpointing relies on *periodically resynchronized* timers:
between resynchronizations clocks drift apart at up to ``2*rho`` per
second, inflating the blocking periods (which contain the
``2*rho*t_elapsed`` term).  The TB engines call
:meth:`ResyncService.request` when the Fig. 5 guard trips; the service
resynchronizes every registered clock (subject to a cooldown so that
three engines tripping the guard in the same interval trigger one
resynchronization, not three — the paper's protocols never need
per-request coordination).
"""

from __future__ import annotations

from typing import List, Optional

from ..runtime import DriftingClock, Simulator, TraceRecorder


class ResyncService:
    """Resynchronizes a set of drifting clocks on request.

    Parameters
    ----------
    cooldown:
        Minimum true-time spacing between resynchronizations; requests
        arriving sooner are coalesced into the previous one.
    """

    def __init__(self, sim: Simulator, clocks: List[DriftingClock],
                 trace: Optional[TraceRecorder] = None,
                 cooldown: float = 1.0) -> None:
        self.sim = sim
        self.clocks = list(clocks)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.cooldown = cooldown
        self.resync_count = 0
        self.coalesced_count = 0
        self._last_resync: Optional[float] = None

    def register(self, clock: DriftingClock) -> None:
        """Add a clock to the synchronized set."""
        self.clocks.append(clock)

    def request(self, reason: str = "") -> bool:
        """Resynchronize all clocks now (unless within the cooldown).

        Returns whether a resynchronization actually ran.
        """
        if (self._last_resync is not None
                and self.sim.now - self._last_resync < self.cooldown):
            self.coalesced_count += 1
            return False
        self._last_resync = self.sim.now
        reference = self.sim.now
        for clock in self.clocks:
            clock.resync(reference_local=reference)
        self.resync_count += 1
        self.trace.record(self.sim.now, "resync", None,
                          reason=reason, clocks=len(self.clocks))
        return True
