"""The original time-based checkpointing protocol (Neves & Fuchs 1998;
paper Section 2.2).

On timer expiry the *current* process state is written to stable
storage; a blocking period of ``delta + 2*rho*tau - t_min`` covers the
write and blocks **all** messages, ensuring basic global-state
consistency.  Recoverability needs no blocking: every unacknowledged
message is part of the snapshot and is re-sent during hardware recovery.
The protocol is confidence-oblivious — it ignores MDCD dirty bits —
which is exactly why naively combining it with MDCD loses
non-contaminated states (paper Fig. 4(a); reproduced by the
``Scheme.NAIVE`` system and :mod:`repro.experiments.scenarios`).
"""

from __future__ import annotations

from ..messages.message import Message
from ..types import CheckpointKind, MessageKind, StableContent
from .base import PendingEstablishment, TbEngineBase


class OriginalTbEngine(TbEngineBase):
    """The unmodified Neves-Fuchs engine."""

    def should_buffer(self, message: Message) -> bool:
        """The original protocol blocks every message during a blocking
        period — including "passed AT" notifications, which is one half
        of the naive-combination interference."""
        return self.in_blocking and self.config.blocking_enabled

    def _begin_establishment(self) -> PendingEstablishment:
        epoch = self.ndc + 1
        initial = self._capture_stable(epoch, StableContent.CURRENT_STATE)
        # Blocking for consistency only; dirty bit plays no role, so the
        # length is tau(0) = delta + 2*rho*tau - t_min.
        return PendingEstablishment(
            epoch=epoch, initial=initial, match_bit=0,
            started_at=self.sim.now,
            blocking_len=self._blocking_len(0))
