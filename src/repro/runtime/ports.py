"""The ports the protocol layer runs against.

The MDCD/TB coordination logic (``host``, ``mdcd``, ``tb``,
``coordination``, ``middleware``) never talks to a concrete substrate.
It talks to a small set of *ports* — structural interfaces — and a
backend supplies adapters:

============  =====================================  ==========================
Port          Sim adapter                            Live adapter
============  =====================================  ==========================
SchedulerPort :class:`repro.sim.kernel.Simulator`    :class:`repro.live.loop.LiveScheduler`
ClockSource   :class:`repro.sim.clock.DriftingClock` :class:`repro.live.clock.WallClock`
TimerPort     :class:`repro.sim.timers.TimerService` (shared — runs on any SchedulerPort)
TransportPort :class:`repro.sim.network.Network`     :class:`repro.live.transport.LiveTransport`
StablePort    :class:`repro.sim.storage.StableStore` :class:`repro.live.storage.FileStableStore`
VolatilePort  :class:`repro.sim.storage.VolatileStore` (shared — plain memory)
CrashPort     :class:`repro.sim.node.Node`           :class:`repro.live.node.LiveNode`
TraceSink     :class:`repro.sim.trace.TraceRecorder` (shared — feeds decision logs)
============  =====================================  ==========================

The interfaces are :class:`typing.Protocol` classes, checked
structurally: the sim classes predate this module and satisfy the ports
as-is, which is exactly the point — the sim backend stays bit-for-bit
unchanged and serves as the verification oracle for any other backend
(see DESIGN.md, "Ports and adapters").
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, List, Optional, Protocol,
                    Sequence, Tuple, runtime_checkable)


@runtime_checkable
class CancellableEvent(Protocol):
    """A scheduled callback that can be revoked before it fires."""

    def cancel(self) -> None: ...


@runtime_checkable
class SchedulerPort(Protocol):
    """Orders and fires callbacks in (true-)time order.

    ``now`` is the substrate's authoritative true time: simulated time
    for the sim kernel, wall-clock seconds for the live loop.  Events
    carry a priority (see :class:`repro.sim.events.EventPriority`) and a
    diagnostic label; ``schedule_many`` is the bulk form timer resyncs
    use.
    """

    @property
    def now(self) -> float: ...

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    args: tuple = ..., priority: Any = ...,
                    label: str = ...) -> CancellableEvent: ...

    def schedule_after(self, delay: float, callback: Callable[..., Any],
                       args: tuple = ..., priority: Any = ...,
                       label: str = ...) -> CancellableEvent: ...

    def schedule_many(self, specs: Sequence[Tuple]) -> List[CancellableEvent]: ...


@runtime_checkable
class ClockSource(Protocol):
    """A local clock with a (possibly imperfect) mapping to true time.

    The TB protocols set alarms at *local* deadlines; the timer service
    converts them through ``true_time_of`` and re-converts on resync.
    """

    def now(self) -> float: ...

    def true_time_of(self, local_time: float) -> float: ...

    def elapsed_since_resync(self) -> float: ...

    def resync(self, reference_local: Optional[float] = ...) -> float: ...

    def on_resync(self, listener: Callable[..., None]) -> None: ...


@runtime_checkable
class TimerPort(Protocol):
    """Local-deadline alarms on top of a :class:`ClockSource`."""

    @property
    def clock(self) -> ClockSource: ...

    def set_alarm(self, local_deadline: float, callback: Callable[..., Any],
                  args: tuple = ..., label: str = ...) -> Any: ...

    def cancel_all(self) -> None: ...


@runtime_checkable
class TransportPort(Protocol):
    """Message transport between registered endpoints.

    The contract the protocol layer relies on (mirrored by both
    backends, asserted by ``tests/runtime/``):

    * FIFO per (sender, receiver) pair;
    * ``deliver`` returning ``False`` suppresses the automatic
      acknowledgement — the receiver acks later via :meth:`ack` once the
      message is actually *read* (TB buffering, deferred MDCD acks);
    * messages to a dead receiver are never acknowledged (the sender's
      unacknowledged set is exactly what recovery must re-send);
    * messages to ``DEVICE`` land in ``device_log``.
    """

    device_log: List[Any]

    def register(self, endpoint: Any) -> None: ...

    def send(self, message: Any) -> Any: ...

    def ack(self, message: Any) -> None: ...


@runtime_checkable
class StablePort(Protocol):
    """Durable checkpoint storage with per-process bounded history.

    ``save`` must be durable once it returns (fsync semantics in a real
    backend; the sim models the latency as ``write_latency``).
    """

    def save(self, checkpoint: Any) -> None: ...

    def latest(self, process_id: Any) -> Any: ...

    def peek(self, process_id: Any) -> Optional[Any]: ...

    def at_epoch(self, process_id: Any, epoch: int) -> Optional[Any]: ...

    def line_checkpoint(self, process_id: Any, epoch: int) -> Optional[Any]: ...

    def discard_after_epoch(self, process_id: Any, epoch: Optional[int]) -> int: ...

    def epochs(self, process_id: Any) -> List[int]: ...

    def history(self, process_id: Any) -> List[Any]: ...


@runtime_checkable
class VolatilePort(Protocol):
    """Single-slot volatile (RAM) checkpoint storage."""

    def save(self, checkpoint: Any) -> None: ...

    def load(self) -> Any: ...

    def peek(self) -> Optional[Any]: ...

    def erase(self) -> None: ...


@runtime_checkable
class CrashPort(Protocol):
    """Fail-stop node semantics: crash notification, restart-with-
    recovery notification, and the liveness flag deliveries check."""

    crashed: bool

    def on_crash(self, listener: Callable[..., None]) -> None: ...

    def on_restart(self, listener: Callable[..., None]) -> None: ...


@runtime_checkable
class TraceSink(Protocol):
    """Receives protocol decision/trace records."""

    enabled: bool

    def wants(self, category: str) -> bool: ...

    def record(self, time: float, category: str,
               process: Optional[Any] = ..., **data: Any) -> Any: ...


def verify_ports(node: Any, transport: Any, scheduler: Any) -> List[str]:
    """Structural sanity check a backend can run at build time: returns
    the list of port violations (empty when everything conforms)."""
    problems: List[str] = []
    checks: Iterable[Tuple[str, Any, type]] = (
        ("scheduler", scheduler, SchedulerPort),
        ("transport", transport, TransportPort),
        ("node", node, CrashPort),
        ("node.stable", getattr(node, "stable", None), StablePort),
        ("node.volatile", getattr(node, "volatile", None), VolatilePort),
        ("node.timers.clock", getattr(getattr(node, "timers", None),
                                      "clock", None), ClockSource),
    )
    for name, obj, port in checks:
        if obj is None or not isinstance(obj, port):
            problems.append(f"{name} does not satisfy {port.__name__}")
    return problems
