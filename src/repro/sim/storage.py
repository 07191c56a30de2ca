"""Volatile (RAM) and stable (disk) checkpoint stores.

The MDCD protocol keeps exactly one volatile checkpoint per process
("a process keeps only its most recent checkpoint in volatile storage",
paper footnote 1); a node crash wipes volatile storage.  Stable storage
survives crashes and retains every epoch a recovery line may still
need: the last ``history`` epochs of each process and, while a member
is down, every epoch from that member's newest on
(:meth:`StableStore.hold`), so hardware recovery finds the line's epoch
in every chain.

Each store keeps byte accounting behind the snapshot pipeline: totals,
a per-checkpoint-kind breakdown, and a per-section breakdown — the raw
material of the overhead report's "where do checkpoint bytes go" table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..checkpoint import Checkpoint
from ..errors import StorageError
from ..types import ProcessId


class _AccountingMixin:
    """Shared byte accounting for checkpoint stores."""

    def _init_accounting(self) -> None:
        #: Number of checkpoints saved over the store's lifetime.
        self.saves: int = 0
        #: Total accounted bytes written (a performance-cost proxy).
        self.bytes_written: int = 0
        #: Accounted bytes per checkpoint kind (Type-1/Type-2/...).
        self.bytes_by_kind: Dict[str, int] = {}
        #: Accounted bytes per snapshot section (app/mdcd/journals/...).
        self.bytes_by_section: Dict[str, int] = {}

    def _account(self, checkpoint: Checkpoint) -> None:
        self.saves += 1
        total = checkpoint.size_bytes
        self.bytes_written += total
        kind = checkpoint.kind.value
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + total
        for part in checkpoint.payload.sections:
            self.bytes_by_section[part.section] = (
                self.bytes_by_section.get(part.section, 0) + part.nbytes)


class VolatileStore(_AccountingMixin):
    """Per-node RAM checkpoint store — most-recent-only, crash-erasable."""

    def __init__(self) -> None:
        self._latest: Dict[ProcessId, Checkpoint] = {}
        self._init_accounting()

    def save(self, checkpoint: Checkpoint) -> None:
        """Replace the owner's volatile checkpoint with ``checkpoint``."""
        self._latest[checkpoint.process_id] = checkpoint
        self._account(checkpoint)

    def load(self, process_id: ProcessId) -> Checkpoint:
        """The most recent volatile checkpoint of ``process_id``.

        Raises :class:`~repro.errors.StorageError` if there is none
        (e.g. after a crash erased it).
        """
        try:
            return self._latest[process_id]
        except KeyError:
            raise StorageError(f"no volatile checkpoint for {process_id}") from None

    def peek(self, process_id: ProcessId) -> Optional[Checkpoint]:
        """Like :meth:`load` but returns ``None`` instead of raising."""
        return self._latest.get(process_id)

    def erase(self) -> None:
        """Wipe the store — models the loss of RAM on a node crash."""
        self._latest.clear()


class StableStore(_AccountingMixin):
    """Per-node disk checkpoint store with bounded epoch history.

    ``history`` is the floor of what each chain keeps: its newest
    ``history`` checkpoints, plus every checkpoint at or above a
    :meth:`hold`'s epoch.  ``write_latency`` models the fixed
    wall-clock cost of writing a
    snapshot; the TB protocols' blocking periods overlap this write
    (paper Section 2.2), so the protocol engines read the attribute
    when sequencing establishment completion.
    """

    def __init__(self, history: int = 2, write_latency: float = 0.05) -> None:
        if history < 1:
            raise StorageError("stable store must retain at least one checkpoint")
        self._history = history
        self._chain: Dict[ProcessId, List[Checkpoint]] = {}
        #: The oldest epoch no trim may drop (``None``: trim by count).
        self.floor: Optional[int] = None
        self.write_latency = write_latency
        self._init_accounting()

    def save(self, checkpoint: Checkpoint) -> None:
        """Append a completed stable checkpoint, trimming old epochs
        below the :attr:`floor`."""
        chain = self._chain.setdefault(checkpoint.process_id, [])
        chain.append(checkpoint)
        cut = len(chain) - self._history
        if self.floor is not None:  # epochs ascend along a chain
            while cut > 0 and chain[cut - 1].epoch >= self.floor:
                cut -= 1
        del chain[:max(cut, 0)]
        self._account(checkpoint)

    def hold(self, floor: Optional[int]) -> None:
        """Trim no epoch at or above ``floor`` (``None``: by count only)
        — set from :func:`~repro.tb.hardware_recovery.retention_floor`."""
        self.floor = floor

    def release(self) -> None:
        """Drop every retained checkpoint: a finished run handing its
        bulk back (the accounting counters stay).  Not a fault model —
        stable storage survives every crash the simulation injects."""
        self._chain.clear()

    def latest(self, process_id: ProcessId) -> Checkpoint:
        """Most recent completed stable checkpoint of ``process_id``."""
        chain = self._chain.get(process_id)
        if not chain:
            raise StorageError(f"no stable checkpoint for {process_id}")
        return chain[-1]

    def peek(self, process_id: ProcessId) -> Optional[Checkpoint]:
        """Like :meth:`latest` but returns ``None`` instead of raising."""
        chain = self._chain.get(process_id)
        return chain[-1] if chain else None

    def at_epoch(self, process_id: ProcessId, epoch: int) -> Optional[Checkpoint]:
        """The retained checkpoint of ``process_id`` for ``epoch``, if any."""
        for ckpt in reversed(self._chain.get(process_id, [])):
            if ckpt.epoch == epoch:
                return ckpt
        return None

    def discard_after_epoch(self, process_id: ProcessId, epoch: int) -> int:
        """Drop retained checkpoints with an epoch *beyond* ``epoch``.

        Hardware recovery calls this when rolling a process back to the
        recovery line: checkpoints of later epochs belong to the
        abandoned timeline, and leaving them retained would let a
        subsequent recovery (or a global-state audit) assemble a line
        mixing pre- and post-rollback states.  Returns the number of
        checkpoints discarded.
        """
        chain = self._chain.get(process_id)
        if not chain:
            return 0
        kept = [c for c in chain
                if c.epoch is None or c.epoch <= epoch]
        discarded = len(chain) - len(kept)
        if discarded:
            self._chain[process_id] = kept
        return discarded

    def epochs(self, process_id: ProcessId) -> List[int]:
        """Retained epoch numbers for ``process_id`` (ascending)."""
        return [c.epoch for c in self._chain.get(process_id, []) if c.epoch is not None]

    def history(self, process_id: ProcessId) -> List[Checkpoint]:
        """All retained checkpoints of ``process_id`` (oldest first)."""
        return list(self._chain.get(process_id, []))
