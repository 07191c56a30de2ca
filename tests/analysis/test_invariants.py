"""Unit tests for the invariant checkers, on synthetic lines with
hand-crafted violations of each kind."""

import pytest

from repro.analysis.global_state import ProcessView
from repro.analysis.invariants import (
    ORPHAN_MESSAGE,
    UNDETECTED_CONTAMINATION,
    UNRESTORABLE_MESSAGE,
    VALIDITY_MISMATCH,
    Violation,
    assert_line_ok,
    check_consistency,
    check_ground_truth,
    check_line,
    check_recoverability,
    summarize_violations,
)
from repro.app.component import AppState
from repro.errors import InvariantViolation
from repro.host import ProcessSnapshot
from repro.journal import Journal
from repro.mdcd.state import MdcdState
from repro.messages.log import MessageLog
from repro.messages.message import DEVICE, Message
from repro.types import MessageKind, ProcessId


def make_view(pid, sent=(), recv=(), unacked=(), dirty=0, corrupt=False,
              vr=None, taken_at=100.0):
    """Build a ProcessView from (message, validated) pairs."""
    journal_sent, journal_recv = Journal(), Journal()
    for message, validated in sent:
        journal_sent.add(message, validated=validated, time=message.send_time)
    for message, validated in recv:
        journal_recv.add(message, validated=validated,
                         time=message.send_time + 0.01)
    snapshot = ProcessSnapshot(
        app_state=AppState(corrupt=corrupt),
        mdcd=MdcdState(dirty_bit=dirty, vr=vr),
        sn_value=0, dedup_seen=set(), unacked=list(unacked),
        journal_sent=journal_sent, journal_recv=journal_recv,
        msg_log=MessageLog(), cursor=0)
    return ProcessView(process_id=ProcessId(pid), snapshot=snapshot,
                       taken_at=taken_at, work_done=taken_at)


def msg(sender="A", receiver="B", sn=None, dirty=0, t=50.0):
    m = Message(kind=MessageKind.INTERNAL, sender=ProcessId(sender),
                receiver=ProcessId(receiver), sn=sn, dirty_bit=dirty)
    m.send_time = t
    return m


class TestConsistency:
    def test_clean_line_passes(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert check_consistency(line) == []

    def test_orphan_detected(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A"),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        violations = check_consistency(line)
        assert [v.kind for v in violations] == [ORPHAN_MESSAGE]

    def test_orphan_ignores_senders_outside_line(self):
        m = msg(sender="ghost")
        line = {ProcessId("B"): make_view("B", recv=[(m, True)])}
        assert check_consistency(line) == []

    def test_validity_mismatch_detected(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B", recv=[(m, False)]),
        }
        violations = check_consistency(line)
        assert [v.kind for v in violations] == [VALIDITY_MISMATCH]

    def test_exempt_receiver_skipped(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A"),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert check_consistency(line, exempt_receivers=[ProcessId("B")]) == []

    def test_pruned_sender_record_not_an_orphan(self):
        m = msg(t=50.0)
        sender = make_view("A")
        sender.snapshot.journal_sent.pruned_before = 60.0
        line = {
            ProcessId("A"): sender,
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert check_consistency(line) == []

    def test_unvalidated_record_never_prune_excused(self):
        m = msg(t=50.0)
        sender = make_view("A")
        sender.snapshot.journal_sent.pruned_before = 60.0
        line = {
            ProcessId("A"): sender,
            ProcessId("B"): make_view("B", recv=[(m, False)]),
        }
        assert len(check_consistency(line)) == 1


class TestRecoverability:
    def test_received_message_is_fine(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert check_recoverability(line) == []

    def test_unrestorable_detected(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B"),
        }
        violations = check_recoverability(line)
        assert [v.kind for v in violations] == [UNRESTORABLE_MESSAGE]

    def test_unacked_message_is_restorable(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)], unacked=[m]),
            ProcessId("B"): make_view("B"),
        }
        assert check_recoverability(line) == []

    def test_external_messages_skipped(self):
        m = Message(kind=MessageKind.EXTERNAL, sender=ProcessId("A"),
                    receiver=DEVICE)
        line = {ProcessId("A"): make_view("A", sent=[(m, True)])}
        assert check_recoverability(line) == []

    def test_shadow_log_arm_covers_unvalidated_active_messages(self):
        m = msg(sender="P1_act", receiver="B", sn=7)
        line = {
            ProcessId("P1_act"): make_view("P1_act", sent=[(m, False)]),
            ProcessId("B"): make_view("B"),
        }
        assert check_recoverability(
            line, guarded_map={ProcessId("P1_act"): 3}) == []
        # Covered by a validation (sn <= vr): the shadow reclaimed its
        # copy, so the message is genuinely unrestorable.
        assert len(check_recoverability(
            line, guarded_map={ProcessId("P1_act"): 9})) == 1

    def test_exempt_receiver_skipped(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B"),
        }
        assert check_recoverability(line,
                                    exempt_receivers=[ProcessId("B")]) == []


class TestGroundTruth:
    def test_clean_claim_with_corrupt_state_flagged(self):
        line = {ProcessId("A"): make_view("A", dirty=0, corrupt=True)}
        violations = check_ground_truth(line)
        assert [v.kind for v in violations] == [UNDETECTED_CONTAMINATION]

    def test_dirty_claim_with_corrupt_state_ok(self):
        line = {ProcessId("A"): make_view("A", dirty=1, corrupt=True)}
        assert check_ground_truth(line) == []

    def test_clean_claim_with_clean_state_ok(self):
        line = {ProcessId("A"): make_view("A", dirty=0, corrupt=False)}
        assert check_ground_truth(line) == []


class TestAggregation:
    def test_check_line_runs_everything(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", corrupt=True),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        kinds = {v.kind for v in check_line(line)}
        assert ORPHAN_MESSAGE in kinds
        assert UNDETECTED_CONTAMINATION in kinds

    def test_assert_line_ok_raises_with_violations(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A"),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        with pytest.raises(InvariantViolation) as excinfo:
            assert_line_ok(line, label="test")
        assert excinfo.value.violations

    def test_assert_line_ok_passes_clean(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert_line_ok(line)

    def test_summarize_counts_by_kind(self):
        violations = [Violation(kind=ORPHAN_MESSAGE, detail=""),
                      Violation(kind=ORPHAN_MESSAGE, detail=""),
                      Violation(kind=VALIDITY_MISMATCH, detail="")]
        assert summarize_violations(violations) == {ORPHAN_MESSAGE: 2,
                                                    VALIDITY_MISMATCH: 1}
