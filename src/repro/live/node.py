"""The live :class:`~repro.runtime.ports.CrashPort`: a facade over the
real host.

On the live backend a "node" *is* the OS process: a crash is ``kill
-9`` (nothing runs afterwards — the volatile store and timers vanish
with the address space, no erasure needed), and a restart is a fresh
process rebuilding from the file-backed stable store.  The facade
exists so the protocol layer finds the same attribute surface it has on
:class:`~repro.sim.node.Node` — scheduler, clock, timers, stores,
liveness and the crash/restart listener hooks, which never fire here:
a live crash ends the process that would run them.
"""

from __future__ import annotations

from typing import Callable, List, Union

from ..runtime import TimerService, VolatileStore
from ..types import NodeId
from .clock import WallClock
from .loop import LiveScheduler
from .storage import FileStableStore


class LiveNode:
    """Per-OS-process node facade."""

    def __init__(self, node_id: Union[NodeId, str], scheduler: LiveScheduler,
                 clock: WallClock, stable: FileStableStore) -> None:
        self.node_id = node_id
        self.sim = scheduler
        self.clock = clock
        self.timers = TimerService(scheduler, clock)
        self.volatile = VolatileStore()
        self.stable = stable
        self.crashed = False
        self.crash_count: int = 0
        self._crash_listeners: List[Callable[["LiveNode"], None]] = []
        self._restart_listeners: List[Callable[["LiveNode"], None]] = []

    # ------------------------------------------------------------------
    def on_crash(self, listener: Callable[["LiveNode"], None]) -> None:
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[["LiveNode"], None]) -> None:
        self._restart_listeners.append(listener)
