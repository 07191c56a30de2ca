"""Hardware error recovery for the TB protocols.

When a node fails and restarts, *all* processes roll back to their
stable-storage checkpoints (paper Sections 2.2/3): the coordinator picks
the most recent epoch every process has completed (the recovery line),
restores each process from its checkpoint of that epoch, bumps the
recovery incarnation (fencing pre-crash in-flight traffic), re-sends
every message the restored states record as unacknowledged, and re-arms
the TB engines at the line's epoch.

Rollback distances — the Fig. 7 metric — are recorded per process per
recovery and exposed for the experiment layer.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

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
        """Subscribe to restarts of every distinct node."""
        seen = set()
        for proc in self.processes:
            node = proc.node
            if id(node) in seen:
                continue
            seen.add(id(node))
            node.on_restart(self._on_restart)

    # ------------------------------------------------------------------
    def _on_restart(self, node: Node) -> None:
        self.recover_all(crashed_node=str(node.node_id))

    def recover_all(self, crashed_node: str = "?") -> None:
        """Roll every in-service process back to the recovery line."""
        active = [p for p in self.processes if not p.deposed]
        if not active:
            return
        line = self._recovery_line(active)
        sim = active[0].sim
        self.recoveries += 1
        self.trace.record(sim.now, "recovery.hardware.start", None,
                          epoch=line, crashed=crashed_node)
        # Fence first: every re-executed or re-sent message must carry
        # the new incarnation, and every pre-crash in-flight delivery
        # must be rejected.
        self.incarnation.bump()
        restored: List = []
        for proc in active:
            # _recovery_line found a checkpoint for every one of them.
            checkpoint = proc.node.stable.line_checkpoint(proc.process_id, line)
            if checkpoint.epoch != line:
                proc.counters.bump("recovery.line_fallback")
            # Checkpoints beyond the line belong to the timeline this
            # rollback abandons; drop them so no later recovery (or
            # audit) can mix them with post-rollback establishments.
            stale = proc.node.stable.discard_after_epoch(proc.process_id, line)
            if stale:
                proc.counters.bump("recovery.stale_epochs_discarded", stale)
            distance = proc.restore_from(checkpoint, "hardware")
            self.records.append(RollbackRecord(
                time=sim.now, process_id=proc.process_id, distance=distance,
                epoch=line, crashed_node=crashed_node))
            restored.append((proc, checkpoint))
        # Re-align the TB engines before resending: resends piggyback
        # the post-recovery Ndc.  All engines must restart on the SAME
        # interval boundary — local clocks straddling a boundary at this
        # instant would otherwise re-arm an interval apart and produce
        # same-epoch checkpoints bracketing live traffic — so agree on
        # the latest next-boundary any of them sees.
        engines = [proc.hardware for proc, _ckpt in restored
                   if proc.hardware is not None]
        indices = [eng.next_boundary_index() for eng in engines
                   if hasattr(eng, "next_boundary_index")]
        boundary_index = max(indices) if indices else None
        for eng in engines:
            if hasattr(eng, "next_boundary_index"):
                eng.reset_after_recovery(line, boundary_index)
            else:
                eng.reset_after_recovery(line)
        deposed = {proc.process_id for proc in self.processes
                   if proc.deposed}
        for proc, _ckpt in restored:
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
        self.trace.record(sim.now, "recovery.hardware.done", None, epoch=line)

    # ------------------------------------------------------------------
    def _recovery_line(self, active: List) -> int:
        epochs = []
        for proc in active:
            latest = proc.node.stable.peek(proc.process_id)
            if latest is None or latest.epoch is None:
                raise RecoveryError(
                    f"{proc.process_id} has no stable checkpoint (no genesis?)")
            epochs.append(latest.epoch)
        return min(epochs)

    # ------------------------------------------------------------------
    def distances(self, process_id: Optional[ProcessId] = None) -> List[float]:
        """Rollback distances recorded so far (optionally one process)."""
        return [r.distance for r in self.records
                if process_id is None or r.process_id == process_id]

    def distances_by_process(self) -> Dict[ProcessId, List[float]]:
        """Distances grouped by process."""
        out: Dict[ProcessId, List[float]] = {}
        for rec in self.records:
            out.setdefault(rec.process_id, []).append(rec.distance)
        return out
