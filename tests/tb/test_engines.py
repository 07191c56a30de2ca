"""Unit tests for the TB engine lifecycle (original and adapted)."""

import pytest

from tb_helpers import EXTERNAL, INTERNAL, action, run_to

from repro.coordination.scheme import Scheme
from repro.messages.message import Message, passed_at_notification
from repro.types import MessageKind, ProcessId, StableContent


class TestGenesisAndTimers:
    def test_genesis_checkpoint_at_start(self, tb_system):
        system = tb_system()
        for proc in system.process_list():
            genesis = proc.node.stable.at_epoch(proc.process_id, 0)
            assert genesis is not None
            assert genesis.meta.get("genesis")

    def test_establishments_every_interval(self, tb_system):
        system = tb_system(interval=10.0)
        run_to(system, 51.0)
        for proc in system.process_list():
            assert proc.hardware.ndc == 5

    def test_timers_approximately_aligned(self, tb_system):
        system = tb_system(interval=10.0, delta=0.02)
        run_to(system, 35.0)
        starts = [rec.time for rec in system.trace.records("tb.establish.start")
                  if rec.data["epoch"] == 2]
        assert len(starts) == 3
        assert max(starts) - min(starts) <= 0.02 + 1e-6

    def test_epoch_counts_completions(self, tb_system):
        system = tb_system(interval=10.0)
        run_to(system, 10.001)  # timers expired, blocking in progress
        assert all(p.hardware.ndc == 0 for p in system.process_list())
        run_to(system, 11.0)
        assert all(p.hardware.ndc == 1 for p in system.process_list())


class TestAdaptedContents:
    def test_clean_process_saves_current_state(self, tb_system):
        system = tb_system()
        run_to(system, 11.0)
        ckpt = system.peer.node.stable.at_epoch(system.peer.process_id, 1)
        assert ckpt.content is StableContent.CURRENT_STATE

    def test_dirty_process_copies_volatile(self, tb_system):
        system = tb_system()
        system.active.software.on_send_internal(action(INTERNAL))
        run_to(system, 11.0)
        peer_ckpt = system.peer.node.stable.at_epoch(system.peer.process_id, 1)
        assert peer_ckpt.content is StableContent.VOLATILE_COPY
        volatile = system.peer.volatile_checkpoint()
        assert peer_ckpt.work_done == volatile.work_done

    def test_pseudo_bit_drives_active_contents(self, tb_system):
        system = tb_system()
        system.active.software.on_send_internal(action(INTERNAL))
        run_to(system, 11.0)
        active_ckpt = system.active.node.stable.at_epoch(
            system.active.process_id, 1)
        assert active_ckpt.content is StableContent.VOLATILE_COPY

    def test_validated_active_saves_current(self, tb_system):
        system = tb_system()
        system.active.software.on_send_internal(action(INTERNAL))
        system.active.software.on_send_external(action(EXTERNAL))  # AT pass
        run_to(system, 11.0)
        active_ckpt = system.active.node.stable.at_epoch(
            system.active.process_id, 1)
        assert active_ckpt.content is StableContent.CURRENT_STATE


class TestMidBlockingSwap:
    def _enter_blocking_dirty(self, system):
        system.active.software.on_send_internal(action(INTERNAL))
        run_to(system, 10.0)
        run_to(system, system.sim.now + 0.001)
        peer = system.peer
        assert peer.hardware.in_blocking
        return peer

    def test_swap_on_matching_notification(self, tb_system):
        system = tb_system()
        peer = self._enter_blocking_dirty(system)
        note = passed_at_notification(system.active.process_id,
                                      peer.process_id, msg_sn=1, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        peer.dispatch(note)
        run_to(system, 11.0)
        ckpt = peer.node.stable.at_epoch(peer.process_id, 1)
        assert ckpt.content is StableContent.SWAPPED_TO_CURRENT
        assert peer.counters.get("tb.swapped") == 1

    def test_no_swap_when_disabled(self, tb_system):
        from repro.tb.blocking import TbConfig
        system = tb_system(scheme=Scheme.COORDINATED_NO_SWAP)
        peer = self._enter_blocking_dirty(system)
        note = passed_at_notification(system.active.process_id,
                                      peer.process_id, msg_sn=1, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        peer.dispatch(note)
        run_to(system, 11.0)
        ckpt = peer.node.stable.at_epoch(peer.process_id, 1)
        assert ckpt.content is StableContent.VOLATILE_COPY

    def test_mismatched_notification_does_not_swap(self, tb_system):
        system = tb_system()
        peer = self._enter_blocking_dirty(system)
        note = passed_at_notification(system.active.process_id,
                                      peer.process_id, msg_sn=1, ndc=1,
                                      msg_id=system.msg_ids.allocate())
        peer.dispatch(note)
        run_to(system, 11.0)
        ckpt = peer.node.stable.at_epoch(peer.process_id, 1)
        assert ckpt.content is StableContent.VOLATILE_COPY


class TestBuffering:
    def test_adapted_buffers_app_but_not_notifications(self, tb_system):
        system = tb_system()
        run_to(system, 10.0)
        run_to(system, system.sim.now + 0.001)
        peer = system.peer
        assert peer.hardware.in_blocking
        app = Message(kind=MessageKind.INTERNAL, sender=ProcessId("P1_act"),
                      receiver=peer.process_id,
                      msg_id=system.msg_ids.allocate())
        note = passed_at_notification(ProcessId("P1_act"), peer.process_id,
                                      msg_sn=1, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        assert peer.hardware.should_buffer(app)
        assert not peer.hardware.should_buffer(note)

    def test_original_buffers_everything(self, tb_system):
        system = tb_system(scheme=Scheme.NAIVE)
        run_to(system, 10.0)
        run_to(system, system.sim.now + 0.001)
        peer = system.peer
        assert peer.hardware.in_blocking
        note = passed_at_notification(ProcessId("P1_act"), peer.process_id,
                                      msg_sn=1, ndc=None,
                                      msg_id=system.msg_ids.allocate())
        assert peer.hardware.should_buffer(note)

    def test_buffered_messages_processed_at_release(self, tb_system):
        system = tb_system()
        run_to(system, 10.0)
        run_to(system, system.sim.now + 0.001)
        assert system.peer.hardware.in_blocking
        system.active.software.on_send_internal(action(INTERNAL))
        run_to(system, system.sim.now + 0.021)  # delivered mid-blocking
        assert len(system.peer._buffer) == 1
        assert system.peer.counters.get("recv.applied") == 0
        run_to(system, 11.0)
        assert len(system.peer._buffer) == 0
        assert system.peer.counters.get("recv.applied") == 1

    def test_own_sends_deferred_during_blocking(self, tb_system):
        system = tb_system()
        run_to(system, 10.0)
        run_to(system, system.sim.now + 0.001)
        assert system.peer.hardware.in_blocking
        system.peer.perform_action(action(INTERNAL))
        assert system.peer.counters.get("sent.internal") == 0
        assert system.peer.counters.get("blocked.deferred_send") == 1
        run_to(system, 11.0)
        assert system.peer.counters.get("sent.internal") == 1


class TestCrashInteraction:
    def test_crash_mid_blocking_aborts_establishment(self, tb_system):
        system = tb_system()
        run_to(system, 10.0)
        run_to(system, system.sim.now + 0.001)
        assert system.peer.hardware.in_blocking
        system.nodes["N2"].crash()
        run_to(system, 11.0)
        assert system.trace.count("tb.establish.abort") >= 1
        assert system.peer.node.stable.at_epoch(system.peer.process_id, 1) is None

    def test_stop_prevents_further_establishments(self, tb_system):
        system = tb_system()
        run_to(system, 11.0)
        system.peer.hardware.stop()
        run_to(system, 31.0)
        assert system.peer.hardware.ndc == 1


class TestResyncGuard:
    def test_resync_requested_when_blocking_grows(self, tb_system):
        from repro.sim.clock import ClockConfig
        # Drift large enough that tau(1) outgrows 25% of a 10 s interval
        # within a few intervals: the Fig. 5 guard must fire.
        system = tb_system(clock=ClockConfig(delta=1.0, rho=0.02),
                           horizon=200.0)
        run_to(system, 100.0)
        assert system.resync is not None
        assert system.resync.resync_count >= 1

    def test_no_resync_with_tight_clocks(self, tb_system):
        system = tb_system(horizon=100.0)
        run_to(system, 100.0)
        assert system.resync.resync_count == 0
