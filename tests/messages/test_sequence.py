"""Unit tests for sequence numbers, ack tracking and deduplication."""

from repro.messages.message import Message
from repro.messages.sequence import (
    AckTracker,
    ReceiveDeduplicator,
    SequenceAllocator,
    latest_sn,
)
from repro.types import MessageKind, ProcessId


def msg(sn=None, sender="A"):
    return Message(kind=MessageKind.INTERNAL, sender=ProcessId(sender),
                   receiver=ProcessId("B"), sn=sn)


class TestSequenceAllocator:
    def test_allocates_monotonically(self):
        alloc = SequenceAllocator()
        assert [alloc.allocate() for _ in range(3)] == [1, 2, 3]

    def test_current_tracks_last(self):
        alloc = SequenceAllocator()
        alloc.allocate()
        assert alloc.current == 1

    def test_restore_rewinds(self):
        alloc = SequenceAllocator()
        for _ in range(5):
            alloc.allocate()
        alloc.restore(2)
        assert alloc.allocate() == 3


class TestAckTracker:
    def test_unacked_until_acked(self):
        tracker = AckTracker()
        m = msg()
        tracker.sent(m)
        assert tracker.unacknowledged() == [m]
        tracker.acked(m.msg_id)
        assert tracker.unacknowledged() == []

    def test_unknown_ack_ignored(self):
        tracker = AckTracker()
        tracker.acked(999)
        assert tracker.acked_count == 0

    def test_unacknowledged_in_send_order(self):
        tracker = AckTracker()
        sent = [msg() for _ in range(4)]
        for m in sent:
            tracker.sent(m)
        assert tracker.unacknowledged() == sent

    def test_restore_replaces_contents(self):
        tracker = AckTracker()
        tracker.sent(msg())
        replacement = [msg(), msg()]
        tracker.restore(replacement)
        assert tracker.unacknowledged() == sorted(replacement,
                                                  key=lambda m: m.msg_id)
        assert len(tracker) == 2


class TestDeduplicator:
    def test_fresh_message_not_duplicate(self):
        dedup = ReceiveDeduplicator()
        assert not dedup.is_duplicate(msg())

    def test_recorded_message_is_duplicate(self):
        dedup = ReceiveDeduplicator()
        m = msg()
        dedup.record(m)
        assert dedup.is_duplicate(m)

    def test_resend_of_recorded_is_duplicate(self):
        dedup = ReceiveDeduplicator()
        m = msg()
        dedup.record(m)
        assert dedup.is_duplicate(m.clone_for_resend())

    def test_snapshot_restore_roundtrip(self):
        m = msg()
        seen = {m.dedup_key}
        other = ReceiveDeduplicator()
        other.restore(seen)
        seen.clear()  # restore took its own copy
        assert other.is_duplicate(m)
        assert other.seen == {m.dedup_key}

    def test_restore_discards_later_records(self):
        dedup = ReceiveDeduplicator()
        early = msg()
        dedup.record(early)
        dedup.restore(set())
        assert not dedup.is_duplicate(early)


class TestLatestSn:
    def test_none_when_empty(self):
        assert latest_sn([]) is None

    def test_highest_overall(self):
        assert latest_sn([msg(sn=1), msg(sn=9), msg(sn=4)]) == 9

    def test_filter_by_sender(self):
        msgs = [msg(sn=1, sender="A"), msg(sn=9, sender="C")]
        assert latest_sn(msgs, sender=ProcessId("A")) == 1

    def test_ignores_null_sns(self):
        assert latest_sn([msg(sn=None), msg(sn=2)]) == 2
