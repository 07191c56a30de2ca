"""Unit tests for the validity-view journal."""

from repro.journal import Journal
from repro.messages.message import Message, MsgIdAllocator
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def msg(sn=None, sender="A", dirty=1):
    return Message(kind=MessageKind.INTERNAL, sender=ProcessId(sender),
                   receiver=ProcessId("B"), sn=sn, dirty_bit=dirty,
                   msg_id=IDS.allocate())


class TestAdd:
    def test_records_fields(self):
        journal = Journal()
        m = msg(sn=3)
        rec = journal.add(m, validated=False, time=1.5)
        assert rec.key == m.msg_id
        assert rec.sn == 3
        assert rec.sent_dirty == 1
        assert not rec.validated
        assert rec.time == 1.5

    def test_resend_maps_to_original_record(self):
        journal = Journal()
        m = msg()
        original = journal.add(m, validated=False, time=1.0)
        duplicate = journal.add(m.clone_for_resend(IDS), validated=True,
                                time=2.0)
        assert duplicate is original
        assert not original.validated  # the re-add refreshed nothing
        assert len(journal) == 1

    def test_contains_and_get(self):
        journal = Journal()
        m = msg()
        journal.add(m, validated=True, time=0.0)
        assert m.msg_id in journal
        assert journal.get(m.msg_id) is not None
        assert journal.get(999999) is None

    def test_dirty_bit_none_recorded_as_clean(self):
        journal = Journal()
        rec = journal.add(msg(dirty=None), validated=True, time=0.0)
        assert rec.sent_dirty == 0


class TestMarkValidated:
    def test_marks_all_from_sender(self):
        journal = Journal()
        journal.add(msg(sender="A"), validated=False, time=0.0)
        journal.add(msg(sender="C"), validated=False, time=0.0)
        changed = journal.mark_validated(ProcessId("A"))
        assert changed == 1
        assert len(journal.records(sender=ProcessId("A"), validated=True)) == 1
        assert len(journal.records(sender=ProcessId("C"), validated=False)) == 1

    def test_sn_bound_is_inclusive(self):
        journal = Journal()
        journal.add(msg(sn=1), validated=False, time=0.0)
        journal.add(msg(sn=2), validated=False, time=0.0)
        journal.add(msg(sn=3), validated=False, time=0.0)
        changed = journal.mark_validated(ProcessId("A"), up_to_sn=2)
        assert changed == 2
        assert [r.sn for r in journal.records(validated=False)] == [3]

    def test_null_sn_records_need_unbounded_marking(self):
        journal = Journal()
        journal.add(msg(sn=None), validated=False, time=0.0)
        assert journal.mark_validated(ProcessId("A"), up_to_sn=5) == 0
        assert journal.mark_validated(ProcessId("A")) == 1

    def test_idempotent(self):
        journal = Journal()
        journal.add(msg(sn=1), validated=False, time=0.0)
        journal.mark_validated(ProcessId("A"))
        assert journal.mark_validated(ProcessId("A")) == 0


class TestPruneAndDiscard:
    def test_prunes_only_old_validated(self):
        journal = Journal()
        old_valid = journal.add(msg(), validated=True, time=1.0)
        old_invalid = journal.add(msg(), validated=False, time=1.0)
        new_valid = journal.add(msg(), validated=True, time=10.0)
        removed = journal.prune_validated_before(5.0)
        assert removed == 1
        assert old_valid.key not in journal
        assert old_invalid.key in journal
        assert new_valid.key in journal

    def test_prune_horizon_is_monotonic(self):
        journal = Journal()
        journal.prune_validated_before(5.0)
        journal.prune_validated_before(3.0)
        assert journal.pruned_before == 5.0

    def test_discard_by_keys(self):
        journal = Journal()
        a = journal.add(msg(), validated=False, time=0.0)
        journal.add(msg(), validated=False, time=0.0)
        assert journal.discard([a.key, 123456]) == 1
        assert len(journal) == 1

    def test_keys_lists_all(self):
        journal = Journal()
        a = journal.add(msg(), validated=False, time=0.0)
        b = journal.add(msg(), validated=False, time=0.0)
        assert set(journal.keys()) == {a.key, b.key}
