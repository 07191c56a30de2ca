"""Message records, sequence/ack bookkeeping, and the shadow's log."""

from .log import LogEntry, MessageLog
from .message import DEVICE, Message, passed_at_notification
from .sequence import AckTracker, ReceiveDeduplicator, SequenceAllocator

__all__ = [
    "AckTracker",
    "DEVICE",
    "LogEntry",
    "Message",
    "MessageLog",
    "ReceiveDeduplicator",
    "SequenceAllocator",
    "passed_at_notification",
]
