"""Unit tests for message records."""

import pytest

from repro.messages.message import (DEVICE, Message, MsgIdAllocator,
                                   passed_at_notification)
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def internal(**kw):
    return Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                   receiver=ProcessId("B"), msg_id=IDS.allocate(), **kw)


class TestIdentity:
    def test_a_message_without_an_id_raises(self):
        with pytest.raises(TypeError, match="needs a msg_id"):
            Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                    receiver=ProcessId("B"))

    def test_msg_ids_unique(self):
        assert internal().msg_id != internal().msg_id

    def test_dedup_key_defaults_to_msg_id(self):
        m = internal()
        assert m.dedup_key == m.msg_id

    def test_clone_for_resend_keeps_logical_identity(self):
        m = internal(sn=5, payload="p")
        clone = m.clone_for_resend(IDS)
        assert clone.msg_id != m.msg_id
        assert clone.dedup_key == m.msg_id
        assert clone.resend_of == m.msg_id
        assert clone.sn == 5 and clone.payload == "p"

    def test_clone_of_clone_keeps_original_key(self):
        m = internal()
        second = m.clone_for_resend(IDS).clone_for_resend(IDS)
        assert second.dedup_key == m.msg_id


class TestKinds:
    def test_is_application(self):
        assert internal().is_application
        external = Message(kind=MessageKind.EXTERNAL, sender=ProcessId("A"),
                           receiver=DEVICE, msg_id=IDS.allocate())
        assert external.is_application
        note = passed_at_notification(ProcessId("A"), ProcessId("B"), 3, 1,
                                      msg_id=IDS.allocate())
        assert not note.is_application

    def test_passed_at_builder(self):
        note = passed_at_notification(ProcessId("A"), ProcessId("B"),
                                      msg_sn=7, ndc=2, msg_id=IDS.allocate())
        assert note.kind is MessageKind.PASSED_AT
        assert note.sn == 7 and note.ndc == 2
        assert note.payload is None


class TestDescribe:
    def test_describe_mentions_endpoints_and_fields(self):
        m = internal(sn=4, ndc=2, dirty_bit=1)
        text = m.describe()
        assert "A->B" in text
        assert "sn=4" in text and "ndc=2" in text and "db=1" in text

    def test_describe_flags_corruption(self):
        assert "CORRUPT" in internal(corrupt=True).describe()
        assert "CORRUPT" not in internal().describe()
