"""The adapted TB checkpointing protocol (paper Section 4.2, Fig. 5).

The ``createCKPT`` logic, verbatim from the paper:

.. code-block:: c

    createCKPT() {
        if (dirty_bit == 0) write_disk(current_state, 0, null);
        else                write_disk(rCKPT, 1, current_state);
        Ndc++;
        dCKPT_time = dCKPT_time + Delta;
        set_timer(createCKPT, dCKPT_time);
        if ((delta + 2*rho*(Ndc*Delta) + Tm(dirty_bit)) >
            (getTime() - (dCKPT_time - Delta)))
            requestResyncTimers();
    }

``write_disk(contents, match, alt)`` starts writing ``contents``, blocks
for ``tau(b)``, and — if the dirty bit diverges from ``match`` before the
blocking ends — aborts and writes ``alt`` (the current state) instead.
For ``P1_act`` the pseudo dirty bit substitutes for the dirty bit
(footnote 2); :meth:`repro.host.FtProcess.confidence_bit` encapsulates
that.

During the blocking period application messages are buffered but
"passed AT" notifications pass through to the (modified) MDCD engine,
whose ``Ndc``-gated handling is what can flip the bit mid-blocking.
The *alternative* contents are captured at swap-decision time: the
application state cannot have changed (application messages were
blocked), and the snapshot then includes the knowledge update the
notification delivered — the paper's "equivalent to the state at the
moment the blocking period starts".
"""

from __future__ import annotations

from ..checkpoint import Checkpoint
from ..errors import StorageError
from ..messages.message import Message
from ..types import CheckpointKind, MessageKind, StableContent
from .base import PendingEstablishment, TbEngineBase


class AdaptedTbEngine(TbEngineBase):
    """The coordination-aware engine."""

    def should_buffer(self, message: Message) -> bool:
        """Block everything except "passed AT" notifications — the
        adapted protocol monitors confidence changes mid-blocking."""
        return (self.in_blocking and self.config.blocking_enabled
                and message.kind is not MessageKind.PASSED_AT)

    def _begin_establishment(self) -> PendingEstablishment:
        epoch = self.ndc + 1
        bit = self.process.confidence_bit()
        if bit == 0:
            initial = self._capture_stable(epoch, StableContent.CURRENT_STATE)
        else:
            rckpt = self.process.volatile_checkpoint()
            if rckpt is None:
                # Defensive: a dirty process always has a volatile
                # checkpoint (Type-1/pseudo establishment precedes every
                # contamination), but fall back to the current state
                # rather than fail the establishment.
                self.process.counters.bump("tb.missing_volatile")
                self.trace("tb.missing_volatile")
                initial = self._capture_stable(epoch,
                                               StableContent.CURRENT_STATE)
                bit = 0
            else:
                initial = self._apply_save_unacked(rckpt.rewritten(
                    kind=CheckpointKind.STABLE, epoch=epoch,
                    content=StableContent.VOLATILE_COPY,
                    meta={**rckpt.meta, "copied_from": rckpt.kind.value,
                          "copied_taken_at": rckpt.taken_at}))
        return PendingEstablishment(
            epoch=epoch, initial=initial, match_bit=bit,
            started_at=self.sim.now,
            blocking_len=self._blocking_len(bit))

    def _final_checkpoint(self, pending: PendingEstablishment) -> Checkpoint:
        """The ``write_disk`` third-argument semantics: if the bit no
        longer matches, replace the volatile copy with the current
        state (which now reflects the validation that flipped the bit)."""
        bit_now = self.process.confidence_bit()
        if (bit_now != pending.match_bit
                and self.config.swap_on_confidence_change
                and pending.match_bit == 1):
            pending.swap = True
            self.process.counters.bump("tb.swapped")
            return self._capture_stable(
                pending.epoch, StableContent.SWAPPED_TO_CURRENT,
                meta={"swapped_at": self.sim.now})
        return pending.initial
