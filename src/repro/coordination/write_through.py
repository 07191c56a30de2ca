"""The write-through baseline (paper Section 3).

A variant MDCD protocol in which every process — including ``P1_act`` —
saves a Type-2 checkpoint to *stable* storage at every validation event
(its own AT success or a received "passed AT" notification).  The
resulting stable checkpoints form a consistent global state, so hardware
faults are tolerated; but checkpoint frequency is tied to the external
message rate, so a process "may suffer an excessive rollback distance
when a hardware fault occurs" — this is the ``E[D_wt]`` curve of
Figure 7, against which the coordinated scheme's ``E[D_co]`` is
compared.
"""

from __future__ import annotations

from typing import Optional

from ..messages.message import Message
from ..types import CheckpointKind, StableContent


class WriteThroughEngine:
    """A hardware-FT engine with no timers: stable saves are driven by
    the MDCD validation events.

    Exposes the same surface the host and the hardware-recovery
    coordinator expect from a TB engine (``start``/``stop``/
    ``should_buffer``/``on_crash``/``next_boundary_index``/
    ``reset_after_recovery``/``ndc``),
    so it is a drop-in alternative.
    """

    def __init__(self, process) -> None:
        self.process = process
        #: Epoch counter: one per stable save, to align recovery lines.
        self.ndc = 0
        self.in_blocking = False  # the write-through variant never blocks
        self.stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Save the genesis checkpoint and subscribe to the software
        engine's validation events."""
        store = self.process.node.stable
        if store.peek(self.process.process_id) is None:
            genesis = self.process.capture_checkpoint(
                CheckpointKind.STABLE, epoch=0,
                content=StableContent.CURRENT_STATE, meta={"genesis": True})
            store.save(genesis)
        if self.process.software is not None:
            self.process.software.on_validation(self._save)

    def stop(self) -> None:
        """Permanently stop saving (deposed process)."""
        self.stopped = True

    def on_crash(self) -> None:
        """Nothing in flight to abort — saves are synchronous."""

    def next_boundary_index(self) -> None:
        """No timer, so no interval boundary to agree on."""
        return None

    def reset_after_recovery(self, epoch: int,
                             boundary_index: Optional[int] = None) -> None:
        """Adopt the recovery line's epoch after a global rollback (there
        is no timer for ``boundary_index`` to re-arm)."""
        del boundary_index
        self.ndc = epoch

    def should_buffer(self, message: Message) -> bool:
        """Write-through never blocks deliveries."""
        return False

    # ------------------------------------------------------------------
    def _save(self, type2: bool) -> None:
        # Every process saves at *every* validation event — "a
        # broadcasted 'passed AT' notification message would trigger
        # each of the processes to establish a Type-2 checkpoint"
        # (paper Section 3) — which keeps the per-process epoch counters
        # aligned and the resulting lines mutually consistent.  The
        # ``type2`` flag is deliberately ignored here.
        del type2
        if self.stopped or self.process.node.crashed or self.process.deposed:
            return
        epoch = self.ndc + 1
        checkpoint = self.process.capture_checkpoint(
            CheckpointKind.STABLE, epoch=epoch,
            content=StableContent.CURRENT_STATE,
            meta={"trigger": "validation"})
        self.process.node.stable.save(checkpoint)
        self.ndc = epoch
        self.process.counters.bump("checkpoint.stable")
        self.process.compact_journals()
        self.process.trace.record(
            self.process.sim.now, "tb.establish.done", self.process.process_id,
            epoch=epoch, content=StableContent.CURRENT_STATE.value,
            swapped=False, write_through=True)
