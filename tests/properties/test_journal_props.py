"""Property-based tests for journals, sequence tracking and the log."""

from hypothesis import given, strategies as st

from repro.journal import Journal
from repro.messages.log import MessageLog
from repro.messages.message import Message, MsgIdAllocator
from repro.messages.sequence import AckTracker, ReceiveDeduplicator
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def make_msg(sn, t=0.0):
    m = Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                receiver=ProcessId("B"), sn=sn, dirty_bit=1,
                msg_id=IDS.allocate())
    m.send_time = t
    return m


sns = st.lists(st.integers(min_value=1, max_value=100), min_size=1,
               max_size=50, unique=True)


class TestJournalProperties:
    @given(sns, st.integers(min_value=0, max_value=120))
    def test_mark_validated_is_exactly_the_sn_prefix(self, xs, bound):
        journal = Journal()
        for sn in xs:
            journal.add(make_msg(sn), validated=False, time=0.0)
        journal.mark_validated(ProcessId("A"), up_to_sn=bound)
        for rec in journal.records():
            assert rec.validated == (rec.sn <= bound)

    @given(sns)
    def test_mark_validated_monotone(self, xs):
        journal = Journal()
        for sn in xs:
            journal.add(make_msg(sn), validated=False, time=0.0)
        journal.mark_validated(ProcessId("A"), up_to_sn=50)
        before = {r.key for r in journal.records(validated=True)}
        journal.mark_validated(ProcessId("A"), up_to_sn=70)
        after = {r.key for r in journal.records(validated=True)}
        assert before <= after

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.booleans()), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_prune_removes_exactly_old_validated(self, entries, horizon):
        journal = Journal()
        keys = {}
        for time, validated in entries:
            rec = journal.add(make_msg(None, t=time), validated=validated,
                              time=time)
            keys[rec.key] = (time, validated)
        journal.prune_validated_before(horizon)
        for key, (time, validated) in keys.items():
            should_remain = not (validated and time < horizon)
            assert (key in journal) == should_remain


class TestAckTrackerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=60))
    def test_tracker_size_invariant(self, ack_indices):
        tracker = AckTracker()
        sent = [make_msg(i) for i in range(30)]
        for m in sent:
            tracker.sent(m)
        acked = set()
        for index in ack_indices:
            if index < len(sent):
                tracker.acked(sent[index].msg_id)
                acked.add(index)
        assert len(tracker) == 30 - len(acked)
        remaining = {m.msg_id for m in tracker.unacknowledged()}
        expected = {m.msg_id for i, m in enumerate(sent) if i not in acked}
        assert remaining == expected


class TestDedupProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1,
                    max_size=40))
    def test_each_logical_message_applies_once(self, deliveries):
        originals = [make_msg(i) for i in range(11)]
        dedup = ReceiveDeduplicator()
        applied = []
        for index in deliveries:
            m = originals[index]
            delivery = m if index % 2 == 0 else m.clone_for_resend(IDS)
            if not dedup.is_duplicate(delivery):
                dedup.record(delivery)
                applied.append(delivery.dedup_key)
        assert len(applied) == len(set(applied))


class TestMessageLogProperties:
    @given(sns, st.integers(min_value=0, max_value=120))
    def test_reclaim_plus_remaining_partition(self, xs, bound):
        log = MessageLog()
        for sn in sorted(xs):
            log.append(sn, make_msg(sn))
        total = len(log)
        dropped = log.reclaim_up_to(bound)
        assert dropped + len(log) == total
        assert all(e.sn > bound for e in log)
