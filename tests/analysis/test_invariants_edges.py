"""Edge-case coverage for the invariant checkers.

The main checker behaviours are covered in ``test_invariants.py``; this
module pins the boundary conditions the online auditor leans on: empty
and partial lines, DEVICE-endpoint traffic, messages restorable by more
than one mechanism at once, the replay-protection (dsn) exemption, and
the gating of the pseudo-conservatism oracle, and the paper-shape
verdicts the topology-general ``check_system_line`` inherited from the
paper-only checker it replaced.
"""

import pytest

from repro.analysis.global_state import ProcessView
from repro.analysis.invariants import (
    ORPHAN_MESSAGE,
    PSEUDO_CONTAMINATION,
    UNRESTORABLE_MESSAGE,
    check_consistency,
    check_ground_truth,
    check_line,
    check_pseudo_conservatism,
    check_recoverability,
    check_system_line,
    summarize_violations,
)
from repro.app.component import AppState
from repro.host import ProcessSnapshot
from repro.journal import Journal
from repro.mdcd.state import MdcdState
from repro.messages.log import MessageLog
from repro.messages.message import DEVICE, Message
from repro.topology.model import Topology
from repro.types import MessageKind, ProcessId


def make_view(pid, sent=(), recv=(), unacked=(), dirty=0, corrupt=False,
              pseudo=0, guarded=True, vr=None, content=None, meta=None,
              taken_at=100.0):
    journal_sent, journal_recv = Journal(), Journal()
    for message, validated in sent:
        journal_sent.add(message, validated=validated, time=message.send_time)
    for message, validated in recv:
        journal_recv.add(message, validated=validated,
                         time=message.send_time + 0.01)
    snapshot = ProcessSnapshot(
        app_state=AppState(corrupt=corrupt),
        mdcd=MdcdState(dirty_bit=dirty, pseudo_dirty_bit=pseudo,
                       guarded=guarded, vr=vr),
        sn_value=0, dedup_seen=set(), unacked=list(unacked),
        journal_sent=journal_sent, journal_recv=journal_recv,
        msg_log=MessageLog(), cursor=0)
    return ProcessView(process_id=ProcessId(pid), snapshot=snapshot,
                       taken_at=taken_at, work_done=taken_at,
                       content=content, meta=meta or {})


def msg(sender="A", receiver="B", sn=None, dsn=None, t=50.0):
    m = Message(kind=MessageKind.INTERNAL, sender=ProcessId(sender),
                receiver=ProcessId(receiver), sn=sn, dsn=dsn)
    m.send_time = t
    return m


class TestEmptyAndPartialLines:
    def test_empty_line_passes_every_checker(self):
        assert check_consistency({}) == []
        assert check_recoverability({}) == []
        assert check_ground_truth({}) == []
        assert check_line({}) == []
        assert check_system_line({}) == []

    def test_single_process_line(self):
        line = {ProcessId("A"): make_view("A")}
        assert check_line(line) == []

    def test_receiver_outside_line_skipped(self):
        m = msg()
        line = {ProcessId("A"): make_view("A", sent=[(m, True)])}
        # B is not in the line (e.g. deposed): nothing to check.
        assert check_recoverability(line) == []

    def test_summarize_empty(self):
        assert summarize_violations([]) == {}


class TestDeviceEndpoints:
    def test_external_sends_never_unrestorable(self):
        # Messages to DEVICE leave the system; they are not expected in
        # any receiver journal and need no restoration.
        m = Message(kind=MessageKind.EXTERNAL, sender=ProcessId("A"),
                    receiver=DEVICE)
        m.send_time = 50.0
        line = {ProcessId("A"): make_view("A", sent=[(m, True)])}
        assert check_recoverability(line) == []

    def test_device_sender_not_an_orphan(self):
        # A record whose sender is outside the line (DEVICE, a deposed
        # process) cannot be cross-checked and must not be flagged.
        m = msg(sender=str(DEVICE))
        line = {ProcessId("B"): make_view("B", recv=[(m, True)])}
        assert check_consistency(line) == []


class TestRestorationPaths:
    def test_unacked_set_restores(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)], unacked=[m]),
            ProcessId("B"): make_view("B"),
        }
        assert check_recoverability(line) == []

    def test_shadow_log_arm_restores_guarded_actives_messages(self):
        m = msg(sn=9)
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B"),
        }
        assert check_recoverability(
            line, guarded_map={ProcessId("A"): 5}) == []

    def test_both_paths_at_once_is_one_clean_pass(self):
        # A message restorable by BOTH the unacked set and the shadow
        # log: the checker must accept it exactly once, not trip over
        # the redundancy.
        m = msg(sn=9)
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)], unacked=[m]),
            ProcessId("B"): make_view("B"),
        }
        assert check_recoverability(
            line, guarded_map={ProcessId("A"): 5}) == []

    def test_covered_sn_not_restorable_by_shadow(self):
        # sn <= vr: the shadow reclaimed its copy, the unacked set is
        # empty — genuinely unrestorable.
        m = msg(sn=3)
        line = {
            ProcessId("A"): make_view("A", sent=[(m, True)]),
            ProcessId("B"): make_view("B"),
        }
        violations = check_recoverability(
            line, guarded_map={ProcessId("A"): 5})
        assert [v.kind for v in violations] == [UNRESTORABLE_MESSAGE]

    def test_dsn_exempts_orphan(self):
        # Replay protection: a received record carrying a destination
        # sequence number re-materializes on the sender's deterministic
        # re-execution, so the missing sent-side is not an orphan.
        m = msg(dsn=7)
        line = {
            ProcessId("A"): make_view("A"),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert check_consistency(line) == []

    def test_no_dsn_still_an_orphan(self):
        m = msg()
        line = {
            ProcessId("A"): make_view("A"),
            ProcessId("B"): make_view("B", recv=[(m, True)]),
        }
        assert [v.kind for v in check_consistency(line)] == [ORPHAN_MESSAGE]


class TestPseudoConservatismGating:
    ACTIVE = ProcessId("P1_act")

    def line_with_active(self, **kwargs):
        return {self.ACTIVE: make_view("P1_act", **kwargs)}

    def test_fires_on_contaminated_current_state(self):
        line = self.line_with_active(content="current-state", corrupt=True,
                                     pseudo=0, dirty=1)
        violations = check_pseudo_conservatism(line, self.ACTIVE)
        assert [v.kind for v in violations] == [PSEUDO_CONTAMINATION]

    def test_volatile_copy_content_not_checked(self):
        # A volatile-copy checkpoint makes no validation claim.
        line = self.line_with_active(content="volatile-copy", corrupt=True,
                                     pseudo=0, dirty=1)
        assert check_pseudo_conservatism(line, self.ACTIVE) == []

    def test_genesis_checkpoint_exempt(self):
        line = self.line_with_active(content="current-state", corrupt=True,
                                     pseudo=0, meta={"genesis": True})
        assert check_pseudo_conservatism(line, self.ACTIVE) == []

    def test_post_takeover_unguarded_exempt(self):
        line = self.line_with_active(content="current-state", corrupt=True,
                                     pseudo=0, guarded=False)
        assert check_pseudo_conservatism(line, self.ACTIVE) == []

    def test_active_missing_from_line(self):
        assert check_pseudo_conservatism({}, self.ACTIVE) == []

    def test_suspect_state_allowed_to_be_corrupt(self):
        # pseudo bit 1 = "suspect": contamination is the *expected*
        # conservative case, not a violation.
        line = self.line_with_active(content="current-state", corrupt=True,
                                     pseudo=1, dirty=1)
        assert check_pseudo_conservatism(line, self.ACTIVE) == []


def paper_line(vr=5, shadow=True, active=True):
    """A paper-shape line with one message per verdict the system-line
    checker can reach; ``(line, {message key: name})``."""
    m = {name: msg(sender, receiver, sn=sn)
         for name, sender, receiver, sn in (
             ("covered", "P1_act", "P2", 3),     # acked, lost, sn <= VR
             ("beyond", "P1_act", "P2", 9),      # acked, lost, sn > VR
             ("disputed", "P1_act", "P2", 4),    # views disagree
             ("to-active", "P2", "P1_act", None),   # lost on the way in
             ("to-shadow", "P2", "P1_sdw", None),   # lost, acked
             ("orphan", "P2", "P1_sdw", None),      # never sent
             ("orphan-in", "P2", "P1_act", None))}  # never sent, exempt
    line = {}
    if active:
        line[ProcessId("P1_act")] = make_view(
            "P1_act", dirty=1, corrupt=True, content="current-state",
            sent=[(m["covered"], False), (m["beyond"], False),
                  (m["disputed"], False)],
            recv=[(m["orphan-in"], True)])
    if shadow:
        line[ProcessId("P1_sdw")] = make_view(
            "P1_sdw", vr=vr, recv=[(m["orphan"], True)])
    line[ProcessId("P2")] = make_view(
        "P2", corrupt=True,
        sent=[(m["to-active"], True), (m["to-shadow"], True)],
        recv=[(m["disputed"], True)])
    return line, {message.dedup_key: name for name, message in m.items()}


class TestMergedSystemLine:
    """Expected lists captured from the paper-only ``check_system_line``
    at the commit before the merge (8d90035), kind / process / message,
    in order."""

    ORPHAN = ("orphan-message", "P1_sdw", "orphan")
    MISMATCH = ("validity-mismatch", "P2", "disputed")
    COVERED = ("unrestorable-message", "P1_act", "covered")
    TO_SHADOW = ("unrestorable-message", "P2", "to-shadow")
    TRUTH = ("undetected-contamination", "P2", None)
    PSEUDO = ("pseudo-undetected-contamination", "P1_act", None)

    @pytest.mark.parametrize("shape, expected", [
        (dict(), [ORPHAN, MISMATCH, COVERED, TO_SHADOW, TRUTH, PSEUDO]),
        # No shadow view: nothing bounds the shadow-log arm, and the
        # shadow is outside the line as a receiver.
        (dict(shadow=False), [MISMATCH, TRUTH, PSEUDO]),
        # No validation yet: every active message is restorable.
        (dict(vr=None), [ORPHAN, MISMATCH, TO_SHADOW, TRUTH, PSEUDO]),
        # Deposed active: its view is not part of the line.
        (dict(active=False), [ORPHAN, TO_SHADOW, TRUTH]),
    ], ids=["full", "shadow-missing", "vr-none", "active-deposed"])
    def test_paper_shape_verdicts_are_the_parents(self, shape, expected):
        line, names = paper_line(**shape)
        violations = check_system_line(line, pseudo_conservatism=True)
        assert [(v.kind, str(v.process), names.get(v.message_key))
                for v in violations] == expected
        # A bare line is checked as the paper's membership.
        assert check_system_line(line, pseudo_conservatism=True,
                                 topology=Topology.paper()) == violations
