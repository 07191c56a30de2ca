"""Shared machinery of the TB checkpointing engines.

Both the original and adapted protocols follow the same skeleton
(paper Fig. 5):

1. a local-clock timer expires at ``dCKPT_time``;
2. the engine begins a stable-checkpoint *establishment*: it picks the
   initial checkpoint contents, starts the write, and enters a blocking
   period;
3. at the end of the blocking period the establishment *completes*: the
   (possibly swapped) contents are durably saved, ``Ndc`` is
   incremented, buffered deliveries and deferred sends are released, the
   next timer is armed at ``dCKPT_time + Delta``, and the
   resynchronization guard runs.

``Ndc`` therefore counts *completed* establishments — the paper's
``write_disk`` is synchronous over the blocking window, with ``Ndc++``
after it returns — which is exactly the convention the "passed AT"
epoch gate needs (see DESIGN.md, "Epoch convention").
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..checkpoint import Checkpoint
from ..messages.message import Message
from ..runtime import ClockConfig, EventPriority, NetworkConfig
from ..snapshot.sections import split_sections
from ..types import CheckpointKind, StableContent
from .blocking import TbConfig, blocking_period, worst_case_blocking


@dataclasses.dataclass
class PendingEstablishment:
    """An in-progress stable-checkpoint establishment."""

    epoch: int
    initial: Checkpoint
    match_bit: int
    started_at: float
    blocking_len: float
    swap: bool = False
    aborted: bool = False


class TbEngineBase:
    """Base class for the TB checkpointing engines.

    Parameters
    ----------
    process:
        The hosting :class:`~repro.host.FtProcess`.
    config, clock_config, net_config:
        Protocol and substrate parameters (the blocking formula needs
        the clock and delay bounds).
    resync:
        Optional :class:`~repro.tb.resync.ResyncService` the engine asks
        for timer resynchronization.
    """

    variant = "tb"

    def __init__(self, process, config: TbConfig, clock_config: ClockConfig,
                 net_config: NetworkConfig, resync=None) -> None:
        self.process = process
        self.config = config
        self.clock_config = clock_config
        self.net_config = net_config
        self.resync = resync
        #: Number of *completed* stable-checkpoint establishments.
        self.ndc = 0
        self.in_blocking = False
        self.stopped = False
        self._pending: Optional[PendingEstablishment] = None
        self._alarm = None
        self._next_deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # shortcuts
    # ------------------------------------------------------------------
    @property
    def sim(self):
        """The simulator the hosting node lives on."""
        return self.process.sim

    @property
    def clock(self):
        """The local (drifting) clock that drives the timer."""
        return self.process.node.timers.clock

    def trace(self, category: str, **data) -> None:
        """Record a trace entry attributed to this engine's process."""
        recorder = self.process.trace
        if recorder.enabled:
            recorder.record(self.sim.now, category,
                            self.process.process_id, **data)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Save the genesis (epoch-0) checkpoint if none exists and arm
        the first checkpointing timer at the next interval boundary of
        the local clock — approximately simultaneous across processes,
        which is the premise of time-based checkpointing."""
        store = self.process.node.stable
        if store.peek(self.process.process_id) is None:
            genesis = self.process.capture_checkpoint(
                CheckpointKind.STABLE, epoch=0,
                content=StableContent.CURRENT_STATE, meta={"genesis": True})
            store.save(genesis)
        local_now = self.clock.now()
        boundary = (int(local_now / self.config.interval) + 1) * self.config.interval
        self._arm(boundary)

    def stop(self) -> None:
        """Permanently stop the engine (deposed process)."""
        self.stopped = True
        self._cancel_alarm()
        self._abort_pending("stopped")

    def on_crash(self) -> None:
        """Node crash: the in-progress establishment (if any) is lost
        with the node; the alarm was cancelled by the timer service."""
        self._abort_pending("crash")
        self._alarm = None

    def next_boundary_index(self) -> int:
        """Index of the next interval boundary on the local clock."""
        return int(self.clock.now() / self.config.interval) + 1

    def trigger_round(self) -> None:
        """Run one checkpoint establishment now, out of band.

        Scripted cross-backend workloads park the periodic timer far in
        the future and drive establishments explicitly, so both backends
        checkpoint at the same points of the causal history.  The next
        periodic deadline re-anchors to the current local time, keeping
        the parked timer parked.
        """
        if (self.stopped or self.process.node.crashed or self.process.deposed
                or self._pending is not None):
            return
        self._cancel_alarm()
        self._next_deadline = self.clock.now()
        self._on_timer()

    def reset_after_recovery(self, epoch: int,
                             boundary_index: Optional[int] = None) -> None:
        """Re-align after a hardware recovery: adopt the recovery line's
        epoch, abandon any in-progress establishment, and re-arm the
        timer at an interval boundary.

        ``boundary_index`` is the restart boundary the recovery
        coordinator agreed for *all* processes.  Without it, a recovery
        landing within clock skew of a boundary splits the processes:
        local clocks straddling the boundary re-arm a full interval
        apart, and the resulting same-epoch checkpoints — taken an
        interval apart, with application traffic in between — form a
        genuinely inconsistent recovery line (found by the schedule
        audit).  In a real system the agreed boundary piggybacks on the
        recovery/restart message.
        """
        if self.stopped:
            return
        self._abort_pending("hardware-recovery")
        self.ndc = epoch
        self._cancel_alarm()
        if boundary_index is None:
            boundary_index = self.next_boundary_index()
        self._arm(boundary_index * self.config.interval)
        self.trace("tb.reset", epoch=epoch)

    # ------------------------------------------------------------------
    # policy points implemented by subclasses
    # ------------------------------------------------------------------
    def should_buffer(self, message: Message) -> bool:  # pragma: no cover
        """Whether a delivery must wait out the blocking period."""
        raise NotImplementedError

    def _begin_establishment(self) -> PendingEstablishment:  # pragma: no cover
        """Choose the initial contents / match bit / blocking length."""
        raise NotImplementedError

    def _final_checkpoint(self, pending: PendingEstablishment) -> Checkpoint:
        """Decide what actually lands on disk (subclasses may swap)."""
        return pending.initial

    # ------------------------------------------------------------------
    # the createCKPT() skeleton
    # ------------------------------------------------------------------
    def _arm(self, local_deadline: float) -> None:
        self._next_deadline = local_deadline
        self._alarm = self.process.node.timers.set_alarm(
            local_deadline, self._on_timer, label=f"tb:{self.process.process_id}")

    def _on_timer(self) -> None:
        if self.stopped or self.process.node.crashed or self.process.deposed:
            return
        pending = self._begin_establishment()
        self._pending = pending
        # With blocking disabled (Fig. 2(a) ablation) the establishment
        # still takes the write latency, but the process neither buffers
        # deliveries nor defers its own sends.
        self.in_blocking = self.config.blocking_enabled
        self.trace("tb.establish.start", epoch=pending.epoch,
                   content=pending.initial.content.value,
                   blocking=pending.blocking_len,
                   dirty=pending.match_bit)
        self.trace("blocking.start", length=pending.blocking_len)
        self.sim.schedule_after(pending.blocking_len, self._complete,
                                args=(pending,), priority=EventPriority.CONTROL,
                                label=f"tb-complete:{self.process.process_id}")

    def _complete(self, pending: PendingEstablishment) -> None:
        if pending.aborted or pending is not self._pending:
            return
        if self.process.node.crashed or self.stopped:
            return
        final = self._final_checkpoint(pending)
        self.process.node.stable.save(final)
        self.ndc = pending.epoch
        self._pending = None
        self.in_blocking = False
        self.trace("tb.establish.done", epoch=final.epoch,
                   content=final.content.value if final.content else None,
                   swapped=pending.swap)
        self.trace("blocking.end", length=pending.blocking_len)
        self.process.counters.bump("checkpoint.stable")
        # Epoch caught up: first replay any validation notifications the
        # Ndc gate deferred, then release buffered application traffic.
        self.process.reprocess_notifications()
        self.process.release_buffer()
        self.process.compact_journals()
        self._arm(self._next_deadline + self.config.interval)
        self._check_resync()

    def _check_resync(self) -> None:
        """The Fig. 5 guard: resynchronize before drift inflates the
        worst-case blocking period past the configured fraction of the
        checkpoint interval."""
        if self.resync is None:
            return
        elapsed_next = self.clock.elapsed_since_resync() + self.config.interval
        tau_worst = worst_case_blocking(self.clock_config, elapsed_next,
                                        self.net_config)
        if tau_worst > self.config.resync_limit_fraction * self.config.interval:
            self.resync.request(reason=f"tb:{self.process.process_id}")

    # ------------------------------------------------------------------
    def _capture_stable(self, epoch: int, content: StableContent,
                        meta: Optional[dict] = None) -> Checkpoint:
        """Capture the current state as stable-checkpoint contents,
        honouring the ``save_unacked`` ablation flag."""
        checkpoint = self.process.capture_checkpoint(
            CheckpointKind.STABLE, epoch=epoch, content=content, meta=meta)
        return self._apply_save_unacked(checkpoint)

    def _apply_save_unacked(self, checkpoint: Checkpoint) -> Checkpoint:
        """Strip the unacknowledged-message set from stable contents when
        the ``save_unacked`` ablation is off.  Every checkpoint an engine
        saves to stable storage must pass through here — captures that
        bypass it silently neutralize the ablation."""
        if self.config.save_unacked:
            return checkpoint
        # Rewrite only the counters section (where ``unacked``
        # lives); the other sections — including any delta-encoded
        # journals — keep their payloads.
        snapshot = checkpoint.restore_state()
        snapshot.unacked = []
        counters = split_sections(snapshot).get("counters", {})
        return checkpoint.with_section("counters", counters)

    def _blocking_len(self, dirty_bit: int) -> float:
        write_latency = self.process.node.stable.write_latency
        if not self.config.blocking_enabled:
            # Fig. 2(a) ablation: the write still takes its latency, but
            # no message blocking protects the establishment.
            return write_latency
        return blocking_period(dirty_bit, self.clock_config,
                               self.clock.elapsed_since_resync(),
                               self.net_config,
                               floor=write_latency)

    def _abort_pending(self, reason: str) -> None:
        if self._pending is not None:
            self._pending.aborted = True
            self.trace("tb.establish.abort", epoch=self._pending.epoch,
                       reason=reason)
            self._pending = None
        self.in_blocking = False

    def _cancel_alarm(self) -> None:
        if self._alarm is not None:
            self._alarm.cancel()
            self._alarm = None
