"""Simulated computing nodes.

A :class:`Node` is a crashable host: it owns a drifting clock, a timer
service, volatile storage (erased by a crash) and stable storage
(persistent).  Processes register with a node; a crash notifies them so
protocol engines can mark themselves down, and a restart triggers the
hardware-recovery path.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import NodeCrashedError
from ..types import NodeId
from .clock import ClockConfig, DriftingClock
from .kernel import Simulator
from .rng import RngRegistry
from .storage import StableStore, VolatileStore
from .timers import TimerService


class Node:
    """A hardware host for simulated processes.

    Parameters
    ----------
    node_id:
        Unique name.
    sim, clock_config, rng_registry:
        Substrate plumbing.
    stable_store:
        Optionally shared between nodes (a common disk array); by default
        each node gets its own store.  Stable contents survive crashes
        either way.
    """

    def __init__(self, node_id: NodeId, sim: Simulator, clock_config: ClockConfig,
                 rng_registry: RngRegistry,
                 stable_store: Optional[StableStore] = None,
                 stable_history: int = 2) -> None:
        self.node_id = node_id
        self.sim = sim
        self.clock = DriftingClock(sim, clock_config, rng_registry, name=str(node_id))
        self.timers = TimerService(sim, self.clock)
        self.volatile = VolatileStore()
        self.stable = stable_store if stable_store is not None \
            else StableStore(history=stable_history)
        self.crashed = False
        #: Number of crashes suffered, for monitoring.
        self.crash_count: int = 0
        self._crash_listeners: List[Callable[["Node"], None]] = []
        self._restart_listeners: List[Callable[["Node"], None]] = []

    # ------------------------------------------------------------------
    def ensure_up(self) -> None:
        """Raise :class:`~repro.errors.NodeCrashedError` if crashed."""
        if self.crashed:
            raise NodeCrashedError(f"node {self.node_id} is crashed")

    def on_crash(self, listener: Callable[["Node"], None]) -> None:
        """Register a callback invoked when the node crashes."""
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[["Node"], None]) -> None:
        """Register a callback invoked when the node restarts."""
        self._restart_listeners.append(listener)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop the node: erase volatile storage, cancel local
        timers, and notify listeners.  Idempotent."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self.volatile.erase()
        self.timers.cancel_all()
        for listener in list(self._crash_listeners):
            listener(self)

    def restart(self) -> None:
        """Bring the node back up.

        The local clock is resynchronized on restart (a rebooted node
        re-joins clock synchronization before resuming the protocols);
        listeners then run the hardware-recovery procedure.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.clock.resync()
        for listener in list(self._restart_listeners):
            listener(self)
