"""Unit tests for MDCD software error recovery (shadow takeover)."""

from mdcd_helpers import EXTERNAL, INTERNAL, action, settle

from repro.coordination.scheme import Scheme
from repro.types import RecoveryAction


def contaminate_and_fail(system):
    """Activate the defect, propagate contamination, fail the next AT."""
    system.low_version.fault_active = True
    system.active.software.on_send_internal(action(INTERNAL))
    settle(system)
    system.peer.software.on_send_internal(action(INTERNAL))
    settle(system)
    system.active.software.on_send_external(action(EXTERNAL))
    settle(system)


class TestLocalDecisions:
    def test_dirty_processes_roll_back(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        recovery = system.sw_recovery
        assert recovery.completed
        assert recovery.decisions[system.peer.process_id] is RecoveryAction.ROLLBACK
        assert recovery.decisions[system.shadow.process_id] is RecoveryAction.ROLLBACK

    def test_clean_processes_roll_forward(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        system.low_version.fault_active = True
        # Contaminate only P2 (the shadow never hears from it).
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        recovery = system.sw_recovery
        assert recovery.decisions[system.shadow.process_id] is RecoveryAction.ROLL_FORWARD
        assert recovery.decisions[system.peer.process_id] is RecoveryAction.ROLLBACK

    def test_rollback_restores_clean_ground_truth(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        assert not system.peer.component.state.corrupt
        assert not system.shadow.component.state.corrupt

    def test_recovery_is_idempotent(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        decisions_before = dict(system.sw_recovery.decisions)
        # A second detection is traced and ignored.
        system.sw_recovery.recover(system.peer, failed_message=None)
        assert system.sw_recovery.decisions == decisions_before


class TestTakeover:
    def test_active_deposed_and_stopped(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        assert system.active.deposed
        system.active.perform_action(action(INTERNAL))
        settle(system)
        # A deposed active sends nothing.
        assert system.active.counters.get("sent.internal") <= 1

    def test_shadow_resends_unvalidated_log_entries(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        system.low_version.fault_active = True
        # Two internal messages, never validated.
        for _ in range(2):
            system.active.software.on_send_internal(action(INTERNAL))
            system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        applied_before = system.peer.counters.get("recv.applied")
        system.active.software.on_send_external(action(EXTERNAL))
        system.shadow.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.sw_recovery.completed
        assert system.sw_recovery.resent >= 2
        # P2 rolled back past the active's invalid messages and received
        # the shadow's correct replacements instead.
        assert system.peer.counters.get("recv.applied") >= applied_before

    def test_validated_entries_are_suppressed_not_resent(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        # A validated exchange first.
        system.active.software.on_send_internal(action(INTERNAL))
        system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        system.shadow.software.on_send_external(action(EXTERNAL))
        settle(system)
        # Then the fault manifests.
        contaminate_and_fail(system)
        # Entries covered by VR were reclaimed at validation, so the
        # takeover resends only the unvalidated tail.
        assert system.sw_recovery.resent <= 3

    def test_promoted_shadow_sends_unsuppressed(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        sent_before = system.shadow.counters.get("sent.internal")
        system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.shadow.counters.get("sent.internal") == sent_before + 1

    def test_promoted_shadow_messages_are_born_valid(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        recs = system.peer.journal_recv.records(sender=system.shadow.process_id)
        assert recs and all(r.validated for r in recs)
        assert system.peer.mdcd.dirty_bit == 0

    def test_peer_stops_addressing_deposed_active(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        assert system.peer.software.routes == [[system.shadow.process_id]]
        assert system.active.process_id not in \
            system.peer.software.notification_recipients
        dropped_before = system.active.counters.get("dropped.deposed")
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.active.counters.get("dropped.deposed") == dropped_before

    def test_guarded_operation_ends(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        assert not system.shadow.mdcd.guarded
        assert not system.peer.mdcd.guarded
        # Dirty bits stay zero from here on.
        system.shadow.software.on_send_internal(action(INTERNAL))
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.shadow.mdcd.dirty_bit == 0
        assert system.peer.mdcd.dirty_bit == 0

    def test_incarnation_bumped(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        before = system.incarnation.value
        contaminate_and_fail(system)
        assert system.incarnation.value == before + 1


class TestPostTakeoverOperation:
    def test_system_keeps_computing_cleanly(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        contaminate_and_fail(system)
        for _ in range(3):
            system.shadow.software.on_send_internal(action(INTERNAL))
            system.peer.software.on_send_internal(action(INTERNAL))
            settle(system)
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert not system.peer.component.state.corrupt
        assert not system.shadow.component.state.corrupt
        assert system.trace.count("at.fail") == 1  # only the original failure
