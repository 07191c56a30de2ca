"""Per-process message journals — the materialization of each process's
*view on message validity*.

The paper's validity-concerned global-state consistency and
recoverability properties (Section 2.1) quantify over (a) which messages
a state reflects as sent/received and (b) whether the sender's and
receiver's *views on the validity* of each message agree.  The MDCD
algorithms track validity implicitly through dirty bits, the valid
message register ``VR`` and "passed AT" notifications; to make the
properties *checkable*, every process here additionally keeps an
explicit journal: one record per application message sent or received,
with a ``validated`` flag that the protocol engines update exactly when
the paper's algorithms update their knowledge (AT success, "passed AT"
receipt with matching ``Ndc``, clean-state sends).

Journals are part of the checkpointable process state, so a checkpoint
captures the process's view *at checkpoint time* — which is precisely
what the invariant checkers need to audit a checkpoint line.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional

from .messages.message import Message
from .types import MessageKind, ProcessId


@dataclasses.dataclass
class JournalRecord:
    """One application message as seen by one process.

    ``key`` is the logical message identity
    (:attr:`~repro.messages.message.Message.dedup_key`), stable across
    recovery re-sends.  ``validated`` is this process's current view:
    ``True`` once the message is known-valid (covered by a successful
    acceptance test), ``False`` while it is only *potentially* valid.
    ``sent_dirty`` records the sender's dirty bit at send time (the bit
    the algorithms piggyback on internal messages); messages sent from a
    clean state are born validated.
    """

    key: object
    kind: MessageKind
    sender: ProcessId
    receiver: ProcessId
    sn: Optional[int]
    sent_dirty: int
    validated: bool
    corrupt: bool
    time: float
    #: Per-source provenance (N-component topologies): guarded active
    #: role id -> highest influencing sequence number of that active.
    #: ``None`` when untainted or untracked.
    taint_map: Optional[dict] = None
    #: Destination sequence number (coordinated schemes); ``None``
    #: under the uncoordinated ones.  A record with a ``dsn`` is
    #: replay-protected: a rolled-back sender regenerates it
    #: deterministically, so its absence from the sender's snapshot is
    #: not an orphan.
    dsn: Optional[int] = None


class Journal:
    """An ordered set of :class:`JournalRecord`, keyed by logical id.

    Plain data; encoded as part of checkpoints (the ``journals``
    snapshot section, which supports delta capture — see
    :mod:`repro.snapshot.delta`).
    """

    #: Snapshot section this state is encoded under.
    snapshot_section = "journals"

    def __init__(self) -> None:
        self._records: Dict[int, JournalRecord] = {}
        #: Records with ``time < pruned_before`` and ``validated=True``
        #: may have been garbage-collected; the invariant checkers skip
        #: cross-journal lookups older than the counterpart's horizon.
        self.pruned_before: float = 0.0

    # ------------------------------------------------------------------
    def add(self, message: Message, validated: bool, time: float) -> JournalRecord:
        """Record an application message (sent or received).

        Re-sends map onto the original record (same ``dedup_key``); a
        re-send of a message the journal already holds refreshes nothing.
        """
        key = message.dedup_key
        if key in self._records:
            return self._records[key]
        record = JournalRecord(
            key=key,
            kind=message.kind,
            sender=message.sender,
            receiver=message.receiver,
            sn=message.sn,
            sent_dirty=message.dirty_bit if message.dirty_bit is not None else 0,
            validated=validated,
            corrupt=message.corrupt,
            time=time,
            taint_map=dict(message.taint_map) if message.taint_map else None,
            dsn=message.dsn,
        )
        self._records[key] = record
        return record

    def mark_validated(self, sender: ProcessId, up_to_sn: Optional[int] = None) -> int:
        """Set the ``validated`` flag on records from ``sender``.

        ``up_to_sn`` limits the marking to records with ``sn <=
        up_to_sn`` (the semantics of a "passed AT" notification carrying
        ``msg_SN``); ``None`` marks all of the sender's records.
        Returns the number of records newly validated.
        """
        changed = 0
        for rec in self._records.values():
            if rec.sender != sender or rec.validated:
                continue
            if up_to_sn is not None and (rec.sn is None or rec.sn > up_to_sn):
                continue
            rec.validated = True
            changed += 1
        return changed

    def prune_validated_before(self, time: float) -> int:
        """Garbage-collect *validated* records older than ``time``.

        A validated record's validity can never change again, and both
        ends of a validated message agree by construction, so old
        validated records carry no information the checkers need —
        provided the checkers respect :attr:`pruned_before` (they do).
        Unvalidated records are never pruned: they are exactly the ones
        recovery decisions hinge on.  Returns the number removed.
        """
        before = {k for k, r in self._records.items()
                  if r.validated and r.time < time}
        for key in before:
            del self._records[key]
        self.pruned_before = max(self.pruned_before, time)
        return len(before)

    def discard(self, keys: Iterable[int]) -> int:
        """Remove records by logical key (used when recovery rolls a
        message out of existence on both sides).  Returns count removed."""
        removed = 0
        for key in list(keys):
            if self._records.pop(key, None) is not None:
                removed += 1
        return removed

    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[JournalRecord]:
        """Record for a logical message id, or ``None``."""
        return self._records.get(key)

    def records(self, sender: Optional[ProcessId] = None,
                validated: Optional[bool] = None) -> List[JournalRecord]:
        """Filtered records in insertion order."""
        out = []
        for rec in self._records.values():
            if sender is not None and rec.sender != sender:
                continue
            if validated is not None and rec.validated != validated:
                continue
            out.append(rec)
        return out

    def keys(self) -> List[int]:
        """All logical message ids in the journal."""
        return list(self._records.keys())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: int) -> bool:
        return key in self._records

    def __eq__(self, other: object) -> bool:
        """Value equality (records in order + pruning horizon) — what
        the snapshot round-trip property tests compare."""
        if not isinstance(other, Journal):
            return NotImplemented
        return (list(self._records.items()) == list(other._records.items())
                and self.pruned_before == other.pruned_before)

    __hash__ = None  # mutable container
