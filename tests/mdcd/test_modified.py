"""The modified MDCD rules (Appendix A) on the paper's three processes,
run by the coordinated schemes' per-source-provenance engines."""

from conftest import EXTERNAL, INTERNAL, action, settle

from repro.coordination.scheme import Scheme
from repro.messages.message import passed_at_notification
from repro.types import CheckpointKind, ProcessId


def modified(manual_system, **kw):
    return manual_system(scheme=Scheme.COORDINATED, **kw)


class TestPseudoDirtyBit:
    def test_pseudo_checkpoint_before_first_internal_send(self, manual_system):
        system = modified(manual_system)
        active = system.active
        assert active.mdcd.pseudo_dirty_bit == 0
        active.software.on_send_internal(action(INTERNAL))
        assert active.mdcd.pseudo_dirty_bit == 1
        ckpt = active.volatile_checkpoint()
        assert ckpt is not None and ckpt.kind is CheckpointKind.PSEUDO

    def test_pseudo_snapshot_predates_send(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        snapshot = system.active.volatile_checkpoint().restore_state()
        assert snapshot.sn_value == 0
        assert snapshot.mdcd.pseudo_dirty_bit == 0

    def test_single_pseudo_per_suspicion_window(self, manual_system):
        system = modified(manual_system)
        for _ in range(3):
            system.active.software.on_send_internal(action(INTERNAL))
        assert system.active.counters.get("checkpoint.pseudo") == 1

    def test_own_at_pass_resets_pseudo(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        system.active.software.on_send_external(action(EXTERNAL))
        assert system.active.mdcd.pseudo_dirty_bit == 0

    def test_new_window_takes_new_pseudo_checkpoint(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        system.active.software.on_send_external(action(EXTERNAL))
        system.active.software.on_send_internal(action(INTERNAL))
        assert system.active.counters.get("checkpoint.pseudo") == 2

    def test_peer_notification_resets_pseudo(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.active.mdcd.pseudo_dirty_bit == 0

    def test_actual_dirty_bit_still_constant(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_external(action(EXTERNAL))
        assert system.active.mdcd.dirty_bit == 1


class TestNoType2:
    def test_no_type2_checkpoints_anywhere(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        system.peer.software.on_send_external(action(EXTERNAL))
        settle(system)
        for proc in system.process_list():
            assert proc.counters.get("checkpoint.type-2") == 0


class TestNdcGating:
    def test_matching_ndc_accepted(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.peer.mdcd.dirty_bit == 1
        # All engines are at Ndc 0 (genesis); a notification with ndc=0
        # matches and cleans.
        note = passed_at_notification(system.active.process_id,
                                      system.peer.process_id, msg_sn=1, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        system.peer.dispatch(note)
        assert system.peer.mdcd.dirty_bit == 0

    def test_mismatching_ndc_gated(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        note = passed_at_notification(system.active.process_id,
                                      system.peer.process_id, msg_sn=1, ndc=5,
                                      msg_id=system.msg_ids.allocate())
        system.peer.dispatch(note)
        assert system.peer.mdcd.dirty_bit == 1
        assert system.peer.counters.get("passed_at.ndc_mismatch") == 1

    def test_future_ndc_notification_deferred_and_replayed(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        note = passed_at_notification(system.active.process_id,
                                      system.peer.process_id, msg_sn=1, ndc=1,
                                      msg_id=system.msg_ids.allocate())
        system.peer.dispatch(note)
        assert system.peer.mdcd.dirty_bit == 1  # gated now
        # When the local epoch catches up, the stashed notification is
        # replayed and the knowledge applied.
        system.peer.hardware.ndc = 1
        assert system.peer.reprocess_notifications() == 1
        assert system.peer.mdcd.dirty_bit == 0

    def test_stale_ndc_notification_not_deferred(self, manual_system):
        system = modified(manual_system)
        system.peer.hardware.ndc = 3
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        note = passed_at_notification(system.active.process_id,
                                      system.peer.process_id, msg_sn=1, ndc=1,
                                      msg_id=system.msg_ids.allocate())
        system.peer.dispatch(note)
        assert system.peer.counters.get("passed_at.deferred", ) == 0


class TestPeerValidBound:
    def test_validated_at_receipt_does_not_contaminate(self, manual_system):
        system = modified(manual_system)
        peer = system.peer
        # P2 learns that P1_act messages up to sn=5 are valid.
        note = passed_at_notification(system.active.process_id,
                                      peer.process_id, msg_sn=5, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        peer.dispatch(note)
        assert peer.mdcd.vr_map["P1_act"] == 5
        # A dirty-flagged message with sn <= 5 arrives afterwards (it
        # was overtaken by the notification): no contamination.
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert peer.mdcd.dirty_bit == 0
        assert peer.counters.get("checkpoint.type-1") == 0
        recs = peer.journal_recv.records(sender=system.active.process_id)
        assert recs and recs[0].validated

    def test_beyond_bound_still_contaminates(self, manual_system):
        system = modified(manual_system)
        peer = system.peer
        note = passed_at_notification(system.active.process_id,
                                      peer.process_id, msg_sn=0, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        peer.dispatch(note)
        system.active.software.on_send_internal(action(INTERNAL))  # sn=1 > 0
        settle(system)
        assert peer.mdcd.dirty_bit == 1


class TestShadowModified:
    def test_reclaim_and_vr_on_notification(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.active.software.on_send_external(action(EXTERNAL))
        system.shadow.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.shadow.mdcd.vr == 2
        assert len(system.shadow.msg_log) == 0

    def test_no_type2_on_validation(self, manual_system):
        system = modified(manual_system)
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.shadow.mdcd.dirty_bit == 1
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.shadow.mdcd.dirty_bit == 0
        assert system.shadow.counters.get("checkpoint.type-2") == 0
