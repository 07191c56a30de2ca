"""Unit tests for the original MDCD protocol (paper Section 2.1): the
:mod:`repro.topology.engines` family with the modifications off, as an
uncoordinated scheme wires it."""

from mdcd_helpers import EXTERNAL, INTERNAL, action, settle

from repro.coordination.scheme import Scheme
from repro.types import CheckpointKind


class TestActiveEngine:
    def test_dirty_bit_constant_one(self, manual_system):
        system = manual_system()
        assert system.active.mdcd.dirty_bit == 1
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.active.mdcd.dirty_bit == 1

    def test_internal_send_flagged_dirty_with_sn(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        recs = system.peer.journal_recv.records(sender=system.active.process_id)
        assert len(recs) == 1
        assert recs[0].sent_dirty == 1
        assert recs[0].sn == 1
        assert not recs[0].validated

    def test_active_never_checkpoints(self, manual_system):
        system = manual_system()
        for _ in range(3):
            system.active.software.on_send_internal(action(INTERNAL))
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.active.volatile_checkpoint() is None

    def test_at_pass_broadcasts_notification(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.shadow.counters.get("recv.passed_at") == 1
        assert system.peer.counters.get("recv.passed_at") == 1

    def test_at_pass_validates_prior_sends(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        recs = system.peer.journal_recv.records(sender=system.active.process_id)
        assert all(r.validated for r in recs)

    def test_at_failure_triggers_recovery(self, manual_system):
        system = manual_system()
        system.low_version.fault_active = True
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.sw_recovery.completed
        assert system.active.deposed


class TestShadowEngine:
    def test_outgoing_suppressed_and_logged(self, manual_system):
        system = manual_system()
        system.shadow.software.on_send_internal(action(INTERNAL))
        system.shadow.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert len(system.shadow.msg_log) == 2
        assert system.shadow.counters.get("suppressed") == 2
        assert system.peer.counters.get("recv.applied") == 0

    def test_shadow_sn_tracks_active_sn(self, manual_system):
        system = manual_system()
        for _ in range(2):
            system.active.software.on_send_internal(action(INTERNAL))
            system.shadow.software.on_send_internal(action(INTERNAL))
        system.active.software.on_send_external(action(EXTERNAL))
        system.shadow.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.shadow.sn.current == system.active.sn.current

    def test_type1_on_first_dirty_receipt(self, manual_system):
        system = manual_system()
        # Make P2 dirty, then have it send to component 1.
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.shadow.mdcd.dirty_bit == 1
        ckpt = system.shadow.volatile_checkpoint()
        assert ckpt is not None and ckpt.kind is CheckpointKind.TYPE_1

    def test_no_second_type1_while_dirty(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.shadow.counters.get("checkpoint.type-1") == 1

    def test_passed_at_sets_vr_reclaims_and_type2(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))  # dirties shadow
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        system.shadow.software.on_send_external(action(EXTERNAL))
        settle(system)
        shadow = system.shadow
        assert shadow.mdcd.dirty_bit == 0
        assert shadow.mdcd.vr == system.active.sn.current
        assert len(shadow.msg_log) == 0  # all entries <= vr reclaimed
        assert shadow.counters.get("checkpoint.type-2") == 1

    def test_type2_only_when_previously_dirty(self, manual_system):
        system = manual_system()
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.shadow.counters.get("checkpoint.type-2") == 0


class TestPeerEngine:
    def test_type1_then_dirty_on_active_message(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        peer = system.peer
        assert peer.mdcd.dirty_bit == 1
        assert peer.mdcd.msg_sn_map == {"P1_act": 1}
        assert peer.counters.get("checkpoint.type-1") == 1

    def test_type1_snapshot_predates_contamination(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        snapshot = system.peer.volatile_checkpoint().restore_state()
        assert snapshot.mdcd.dirty_bit == 0
        assert snapshot.app_state.inputs_applied == 0

    def test_dirty_external_runs_at_and_broadcasts(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        peer = system.peer
        assert peer.counters.get("at.pass") == 1
        assert peer.mdcd.dirty_bit == 0
        assert peer.counters.get("checkpoint.type-2") == 1
        assert system.shadow.counters.get("recv.passed_at") == 1
        assert system.active.counters.get("recv.passed_at") == 1

    def test_clean_external_skips_at(self, manual_system):
        system = manual_system()
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.peer.counters.get("at.pass") == 0
        assert system.peer.counters.get("sent.external") == 1

    def test_peer_notification_carries_active_sn(self, manual_system):
        system = manual_system()
        for _ in range(3):
            system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        # The shadow's VR reflects P2's record of P1_act's last SN.
        assert system.shadow.mdcd.vr == 3

    def test_internal_piggybacks_dirty_bit(self, manual_system):
        system = manual_system()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        recs = system.shadow.journal_recv.records(sender=system.peer.process_id)
        assert recs and recs[0].sent_dirty == 1

    def test_at_failure_escalates(self, manual_system):
        system = manual_system()
        system.low_version.fault_active = True
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.sw_recovery.completed
