"""Hardware error recovery for the TB protocols.

When a node fails and restarts, *all* processes roll back to their
stable-storage checkpoints (paper Sections 2.2/3): the coordinator picks
the most recent epoch every process has completed (the recovery line),
restores each process from its checkpoint of that epoch, bumps the
recovery incarnation (fencing pre-crash in-flight traffic), re-sends
every message the restored states record as unacknowledged, and re-arms
the TB engines at the line's epoch.

The two steps every backend shares are module functions, the way
:mod:`repro.mdcd.recovery` shares software recovery:

* :func:`line_report` + :func:`agree_line` — the recovery line and the
  restart boundary every TB engine re-arms on;
* :func:`retention_floor` — while members are down, the oldest epoch
  every stable store keeps, so the line is there when they come back;
* :func:`restore_to_line` — one process's restore to that line.

Two callers run them: :class:`HardwareRecoveryCoordinator` on the sim,
in one address space, and, on the live backend,
:class:`repro.live.harness.LiveHarness` (the hold at a crash and the
agreement, from each agent's ``hw-latest`` report) with
:meth:`repro.live.agent.LiveAgent._cmd_hw_recover` (the restore, inside
each agent).

Rollback distances — the Fig. 7 metric — are recorded per process per
recovery and exposed for the experiment layer.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Tuple

from ..errors import RecoveryError
from ..runtime import Node, TraceRecorder
from ..types import ProcessId


@dataclasses.dataclass(frozen=True)
class RollbackRecord:
    """One process's rollback in one hardware recovery."""

    time: float
    process_id: ProcessId
    distance: float
    epoch: int
    crashed_node: str


def line_report(proc) -> Tuple[ProcessId, Optional[int], Optional[int]]:
    """What one process brings to the line agreement: its id, its newest
    stable epoch (``None`` without one) and its hardware engine's next
    interval boundary (``None`` for an engine with no timer)."""
    latest = proc.node.stable.peek(proc.process_id)
    hardware = proc.hardware
    return (proc.process_id,
            None if latest is None else latest.epoch,
            None if hardware is None else hardware.next_boundary_index())


def agree_line(reports: Iterable[Tuple[ProcessId, Optional[int], Optional[int]]]
               ) -> Tuple[int, Optional[int]]:
    """The recovery line — the newest epoch every process completed —
    and the restart boundary: the latest next boundary any engine sees.

    All engines must restart on the SAME interval boundary: local clocks
    straddling a boundary at the recovery instant would otherwise re-arm
    an interval apart and produce same-epoch checkpoints bracketing live
    traffic.
    """
    epochs: List[int] = []
    boundaries: List[int] = []
    for process_id, epoch, boundary in reports:
        if epoch is None:
            raise RecoveryError(
                f"{process_id} has no stable checkpoint (no genesis?)")
        epochs.append(epoch)
        if boundary is not None:
            boundaries.append(boundary)
    return min(epochs), (max(boundaries) if boundaries else None)


def retention_floor(down_reports: Iterable[tuple]) -> Optional[int]:
    """The oldest epoch every stable store keeps while the processes of
    ``down_reports`` (:func:`line_report`) are down — the next line is
    no newer than their newest epochs; ``None`` when none is down."""
    return min((epoch for _process_id, epoch, _boundary in down_reports
                if epoch is not None), default=None)


def restore_to_line(proc, line: int) -> float:
    """Restore ``proc`` from its checkpoint of the recovery line and
    return the rollback distance.

    Every chain holds the line's epoch (each process completed it, and
    the :func:`retention_floor` kept it through the outage); a chain
    without it is damaged, and recovery stops rather than restore
    another epoch.  Checkpoints beyond the line belong to the abandoned
    timeline; they are dropped so no later recovery (or audit) can mix
    them with post-rollback establishments.
    """
    stable = proc.node.stable
    checkpoint = stable.at_epoch(proc.process_id, line)
    if checkpoint is None:
        raise RecoveryError(f"{proc.process_id} lacks line epoch {line}: "
                            f"{stable.epochs(proc.process_id)}")
    stale = stable.discard_after_epoch(proc.process_id, line)
    if stale:
        proc.counters.bump("recovery.stale_epochs_discarded", stale)
    return proc.restore_from(checkpoint, "hardware")


class HardwareRecoveryCoordinator:
    """Runs the global rollback after every node restart.

    Parameters
    ----------
    processes:
        All :class:`~repro.host.FtProcess` instances of the system
        (deposed processes are skipped at recovery time).
    incarnation:
        The shared recovery incarnation counter.
    """

    def __init__(self, processes: List, incarnation,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.processes = list(processes)
        self.incarnation = incarnation
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        #: Every rollback performed, in order.
        self.records: List[RollbackRecord] = []
        #: Number of hardware recoveries executed.
        self.recoveries = 0

    def install(self) -> None:
        """Subscribe to crashes and restarts of every distinct node."""
        seen = set()
        for proc in self.processes:
            node = proc.node
            if id(node) in seen:
                continue
            seen.add(id(node))
            node.on_crash(self._hold_line)
            node.on_restart(self._on_restart)

    # ------------------------------------------------------------------
    def _on_restart(self, node: Node) -> None:
        self.recover_all(crashed_node=str(node.node_id))

    def _hold_line(self, _node: Optional[Node] = None) -> None:
        """Set every store's floor from the members down right now."""
        active = [p for p in self.processes if not p.deposed]
        floor = retention_floor(line_report(proc) for proc in active
                                if proc.node.crashed)
        for proc in active:
            proc.node.stable.hold(floor)

    def recover_all(self, crashed_node: str = "?") -> None:
        """Roll every in-service process back to the recovery line."""
        active = [p for p in self.processes if not p.deposed]
        if not active:
            return
        line, boundary = agree_line(line_report(proc) for proc in active)
        sim = active[0].sim
        self.recoveries += 1
        self.trace.record(sim.now, "recovery.hardware.start", None,
                          epoch=line, crashed=crashed_node)
        # Fence first: every re-executed or re-sent message must carry
        # the new incarnation, and every pre-crash in-flight delivery
        # must be rejected.
        self.incarnation.bump()
        # Phase order matters to the event sequence: restore every
        # process, then re-arm every engine, then resend.
        for proc in active:
            distance = restore_to_line(proc, line)
            self.records.append(RollbackRecord(
                time=sim.now, process_id=proc.process_id, distance=distance,
                epoch=line, crashed_node=crashed_node))
        # Re-align the TB engines before resending: resends piggyback
        # the post-recovery Ndc.
        for proc in active:
            if proc.hardware is not None:
                proc.hardware.reset_after_recovery(line, boundary)
        deposed = {proc.process_id for proc in self.processes
                   if proc.deposed}
        for proc in active:
            if proc.node.crashed:
                # Overlapping crashes: a process whose own node is still
                # down was rolled back to the line like everyone else
                # (its stable chain survives the crash), but it can
                # neither transmit nor run right now — its resends and
                # driver resume ride on the recovery that fires at its
                # own restart.
                proc.counters.bump("recovery.resend_deferred_crashed")
                continue
            proc.resend_unacknowledged(deposed)
            proc.driver.resume()
        self._hold_line()
        self.trace.record(sim.now, "recovery.hardware.done", None, epoch=line)

    # ------------------------------------------------------------------
    def distances(self, process_id: Optional[ProcessId] = None) -> List[float]:
        """Rollback distances recorded so far (optionally one process)."""
        return [r.distance for r in self.records
                if process_id is None or r.process_id == process_id]

