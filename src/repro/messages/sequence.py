"""Sequence-number allocation, acknowledgement tracking and receive-side
deduplication.

These three small pieces implement the bookkeeping the TB protocols rely
on for recoverability: a sender keeps every not-yet-acknowledged message
so it can be saved into the next stable checkpoint and re-sent during
hardware recovery; a receiver drops re-sent messages it has already
processed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..types import ProcessId
from .message import Message


class SequenceAllocator:
    """Monotonic per-sender message sequence numbers (the paper's
    ``msg_SN``).  Restorable from checkpoints."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    @property
    def current(self) -> int:
        """The last allocated sequence number (0 if none yet)."""
        return self._next

    def allocate(self) -> int:
        """Increment and return the next sequence number (1-based)."""
        self._next += 1
        return self._next

    def restore(self, value: int) -> None:
        """Reset the counter to a checkpointed value."""
        self._next = value


class AckTracker:
    """Tracks in-flight (sent but unacknowledged) messages for a sender.

    The original and adapted TB protocols save the tracked messages as
    part of each stable checkpoint and re-send them during hardware
    recovery, which is how they guarantee recoverability without a
    blocking-for-recoverability period (paper Section 2.2).
    """

    def __init__(self) -> None:
        self._inflight: Dict[int, Message] = {}
        #: Total acks processed, for monitoring.
        self.acked_count: int = 0

    def sent(self, message: Message) -> None:
        """Record a transmission awaiting acknowledgement."""
        self._inflight[message.msg_id] = message

    def acked(self, msg_id: int) -> None:
        """Process an acknowledgement (unknown ids are ignored — the ack
        may refer to a transmission superseded by recovery)."""
        if self._inflight.pop(msg_id, None) is not None:
            self.acked_count += 1

    def unacknowledged(self) -> List[Message]:
        """Snapshot of in-flight messages, in send order."""
        return sorted(self._inflight.values(), key=lambda m: m.msg_id)

    def restore(self, messages: Iterable[Message]) -> None:
        """Replace tracked state from a checkpoint's saved message set."""
        self._inflight = {m.msg_id: m for m in messages}

    def __len__(self) -> int:
        return len(self._inflight)


class ReceiveDeduplicator:
    """Receive-side duplicate suppression keyed on the logical message
    identity (:attr:`Message.dedup_key`).

    After hardware recovery a sender re-sends every unacknowledged
    message; receivers that actually processed the original must drop
    the duplicate.  The seen-set is part of the receiver's checkpointed
    state, so a receiver that *rolled back* past the original delivery
    will accept the re-send — exactly the behaviour recoverability
    requires.
    """

    def __init__(self) -> None:
        self._seen: Set[int] = set()

    def is_duplicate(self, message: Message) -> bool:
        """Whether this logical message was already processed."""
        return message.dedup_key in self._seen

    def record(self, message: Message) -> None:
        """Mark the logical message as processed."""
        self._seen.add(message.dedup_key)

    @property
    def seen(self) -> Set[int]:
        """The live seen-set, by reference (a capture's codec freezes
        it; :meth:`restore` takes its own copy)."""
        return self._seen

    def restore(self, seen: Set[int]) -> None:
        """Restore the seen-set from a checkpoint."""
        self._seen = set(seen)

    def __len__(self) -> int:
        return len(self._seen)


def latest_sn(messages: Iterable[Message], sender: Optional[ProcessId] = None) -> Optional[int]:
    """Highest sequence number among ``messages`` (optionally filtered by
    sender); ``None`` if there is none.  Convenience for checkers."""
    best: Optional[int] = None
    for m in messages:
        if sender is not None and m.sender != sender:
            continue
        if m.sn is not None and (best is None or m.sn > best):
            best = m.sn
    return best
