"""Unit tests for the shadow's suppressed-message log."""

import pytest

from repro.messages.log import MessageLog
from repro.messages.message import Message, MsgIdAllocator
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def msg(sn):
    return Message(kind=MessageKind.INTERNAL, sender=ProcessId("S"),
                   receiver=ProcessId("P2"), sn=sn, msg_id=IDS.allocate())


def loaded(*sns):
    log = MessageLog()
    for sn in sns:
        log.append(sn, msg(sn))
    return log


class TestAppend:
    def test_appends_in_order(self):
        log = loaded(1, 2, 3)
        assert [e.sn for e in log] == [1, 2, 3]

    def test_rejects_non_increasing_sn(self):
        log = loaded(3)
        with pytest.raises(ValueError):
            log.append(3, msg(3))
        with pytest.raises(ValueError):
            log.append(2, msg(2))


class TestReclaim:
    def test_reclaims_up_to_sn(self):
        log = loaded(1, 2, 3, 4)
        dropped = log.reclaim_up_to(2)
        assert dropped == 2
        assert [e.sn for e in log] == [3, 4]

    def test_reclaim_counts_accumulate(self):
        log = loaded(1, 2, 3)
        log.reclaim_up_to(1)
        log.reclaim_up_to(3)
        assert log.reclaimed_count == 3

    def test_reclaim_nothing(self):
        log = loaded(5, 6)
        assert log.reclaim_up_to(4) == 0
        assert len(log) == 2


class TestEntriesAfter:
    def test_none_returns_all(self):
        log = loaded(1, 2)
        assert len(log.entries_after(None)) == 2

    def test_strictly_after(self):
        log = loaded(1, 2, 3)
        assert [e.sn for e in log.entries_after(2)] == [3]

    def test_clear(self):
        log = loaded(1, 2)
        log.clear()
        assert len(log) == 0
