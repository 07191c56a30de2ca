"""Unit tests for the fault-tolerant process host."""

import copy

import pytest

from repro.app.component import ApplicationComponent, Payload
from repro.app.versions import HighConfidenceVersion
from repro.app.workload import Action, ActionKind, WorkloadConfig, WorkloadDriver, \
    generate_actions
from repro.host import FtProcess, IncarnationCounter
from repro.messages.message import Message
from repro.types import CheckpointKind, MessageKind, ProcessId


@pytest.fixture
def plain_pair(sim, network, make_node, rng, trace):
    """Two engine-less FtProcesses wired as peers."""
    incarnation = IncarnationCounter()
    procs = []
    for name in ("A", "B"):
        actions = generate_actions(
            WorkloadConfig(internal_rate=0.5, external_rate=0.05,
                           step_rate=0.1, horizon=200.0), rng, f"w.{name}")
        proc = FtProcess(ProcessId(name), make_node(f"N{name}"), network,
                         ApplicationComponent(name, HighConfidenceVersion(name)),
                         WorkloadDriver(sim, actions, name),
                         incarnation, role=None, trace=trace)
        procs.append(proc)
    procs[0].default_peers = [procs[1].process_id]
    procs[1].default_peers = [procs[0].process_id]
    return procs


def step_action(index=0, stimulus=3):
    return Action(index=index, kind=ActionKind.LOCAL_STEP, gap=0.0,
                  stimulus=stimulus)


class TestIncarnation:
    def test_counter_bumps(self):
        counter = IncarnationCounter()
        assert counter.bump() == 1
        assert counter.value == 1

    def test_stale_delivery_rejected(self, sim, plain_pair):
        a, b = plain_pair
        sent = a.send_internal(Payload(1), [b.process_id], sn=1, dirty_bit=0,
                               validated=True)
        a.incarnation.bump()
        sim.run()
        assert b.counters.get("dropped.stale_incarnation") == 1
        assert b.counters.get("recv.applied") == 0
        # Rejected deliveries are never acknowledged.
        assert len(a.acks) == 1
        assert a.acks.unacknowledged() == sent

    def test_current_incarnation_accepted(self, sim, plain_pair):
        a, b = plain_pair
        a.send_internal(Payload(1), [b.process_id], sn=1, dirty_bit=0,
                        validated=True)
        sim.run()
        assert b.counters.get("recv.applied") == 1
        assert len(a.acks) == 0


class TestSendReceive:
    def test_internal_roundtrip_updates_journals(self, sim, plain_pair):
        a, b = plain_pair
        [m] = a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=0,
                              validated=True)
        sim.run()
        assert a.journal_sent.get(m.dedup_key) is not None
        assert b.journal_recv.get(m.dedup_key) is not None
        assert b.component.state.value == 5

    def test_multicast_fans_out(self, sim, plain_pair):
        a, b = plain_pair
        sent = a.send_internal(Payload(5), [b.process_id, a.process_id],
                               sn=1, dirty_bit=0, validated=True)
        assert len(sent) == 2
        assert len({m.msg_id for m in sent}) == 2

    def test_external_goes_to_device(self, sim, network, plain_pair):
        a, _ = plain_pair
        a.send_external(Payload(7), validated=True)
        sim.run()
        assert len(network.device_log) == 1
        assert len(a.acks) == 0  # externals are not ack-tracked

    def test_duplicate_deliveries_are_dropped(self, sim, plain_pair):
        a, b = plain_pair
        [m] = a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=0,
                              validated=True)
        sim.run()
        a.resend(m)
        sim.run()
        assert b.counters.get("recv.applied") == 1
        assert b.counters.get("recv.duplicate") == 1
        assert len(a.acks) == 0  # the duplicate was acked anyway

    def test_resend_supersedes_original_in_tracker(self, sim, plain_pair):
        a, b = plain_pair
        b.node.crash()
        [m] = a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=0,
                              validated=True)
        sim.run()
        assert a.acks.unacknowledged() == [m]
        clone = a.resend(m)
        assert a.acks.unacknowledged() == [clone]


class TestDeferredAcks:
    def test_unvalidated_message_ack_deferred(self, sim, plain_pair):
        a, b = plain_pair
        [m] = a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=1,
                              validated=False)
        sim.run()
        # Applied but not validated: no ack yet.
        assert b.counters.get("recv.applied") == 1
        assert b.counters.get("ack.deferred") == 1
        assert a.acks.unacknowledged() == [m]

    def test_flush_releases_after_validation(self, sim, plain_pair):
        a, b = plain_pair
        [m] = a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=1,
                              validated=False)
        sim.run()
        b.journal_recv.get(m.dedup_key).validated = True
        assert b.flush_deferred_acks() == 1
        sim.run()
        assert len(a.acks) == 0

    def test_flush_skips_still_unvalidated(self, sim, plain_pair):
        a, b = plain_pair
        a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=1,
                        validated=False)
        sim.run()
        assert b.flush_deferred_acks() == 0


class TestProgressAndCheckpoints:
    def test_progress_tracks_time(self, sim, plain_pair):
        a, _ = plain_pair
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert a.progress == pytest.approx(10.0)

    def test_volatile_checkpoint_saved_and_counted(self, plain_pair):
        a, _ = plain_pair
        a.take_volatile_checkpoint(CheckpointKind.TYPE_1)
        assert a.volatile_checkpoint() is not None
        assert a.counters.get("checkpoint.type-1") == 1

    def test_restore_rewinds_state_and_progress(self, sim, plain_pair):
        a, b = plain_pair
        a.component.local_step(1)
        checkpoint = a.capture_checkpoint(CheckpointKind.TYPE_1)
        sim.schedule_at(10.0, lambda: a.component.local_step(2))
        sim.run()
        value_before = a.component.state.steps_applied
        distance = a.restore_from(checkpoint, "software")
        assert distance == pytest.approx(10.0)
        assert a.component.state.steps_applied == 1
        assert value_before == 2
        assert a.progress == pytest.approx(0.0)

    def test_restore_restores_sequence_and_dedup(self, sim, plain_pair):
        a, b = plain_pair
        checkpoint = b.capture_checkpoint(CheckpointKind.TYPE_1)
        [m] = a.send_internal(Payload(5), [b.process_id], sn=1, dirty_bit=0,
                              validated=True)
        sim.run()
        assert b.dedup.is_duplicate(m)
        b.restore_from(checkpoint, "hardware")
        assert not b.dedup.is_duplicate(m)

    def test_restore_distance_uses_crash_progress(self, sim, plain_pair):
        a, _ = plain_pair
        checkpoint = a.capture_checkpoint(CheckpointKind.TYPE_1)
        sim.schedule_at(5.0, a.node.crash)
        sim.schedule_at(8.0, a.node.restart)
        sim.run()
        distance = a.restore_from(checkpoint, "hardware")
        # Undone work is measured to the crash instant, not the restore.
        assert distance == pytest.approx(5.0)

    def test_checkpoint_meta_has_dirty_bits(self, plain_pair):
        a, _ = plain_pair
        a.mdcd.dirty_bit = 1
        checkpoint = a.capture_checkpoint(CheckpointKind.TYPE_1)
        assert checkpoint.meta["dirty_bit"] == 1


class TestCaptureIsolation:
    """``make_snapshot`` hands the codec references to the live state;
    the codec's isolation is all that freezes a checkpoint."""

    def test_checkpoint_survives_every_later_mutation(self, sim, plain_pair):
        a, b = plain_pair
        a.replay_dedup = b.replay_dedup = True
        for sn in (1, 2):
            a.send_internal(Payload(sn), [b.process_id], sn=sn, dirty_bit=1,
                            validated=False, taint_map={"C1_act": sn})
            b.send_internal(Payload(10 + sn), [a.process_id], sn=sn,
                            dirty_bit=0, validated=True)
        sim.run()
        held = a.send_internal(Payload(3), [b.process_id], sn=3, dirty_bit=1,
                               validated=False)  # stays unacknowledged
        a.perform_action(step_action())
        a.mdcd.dirty_bit = 1
        a.mdcd.taint_map, a.mdcd.vr_map = {"C1_act": 2}, {"C1_act": 1}
        a.mdcd.msg_sn_map = {"C1_act": 2}
        a.msg_log.append(1, held[0])
        frozen = copy.deepcopy(a.make_snapshot())
        assert (frozen.dedup_seen and frozen.unacked and frozen.dsn_counters
                and len(frozen.journal_sent) and len(frozen.journal_recv))

        checkpoint = a.capture_checkpoint(CheckpointKind.TYPE_1)

        # Everything make_snapshot referenced moves on.
        a.perform_action(step_action())
        a.component.state.corrupt = True
        a.mdcd.dirty_bit = 0
        for live in (a.mdcd.taint_map, a.mdcd.vr_map, a.mdcd.msg_sn_map):
            live["C1_act"] += 5
            live["C2_act"] = 1
        a.send_internal(Payload(4), [b.process_id], sn=4, dirty_bit=0,
                        validated=True)  # journal, acks, dsn counters
        b.send_internal(Payload(14), [a.process_id], sn=4, dirty_bit=0,
                        validated=True)
        sim.run()                        # dedup set, receive journal, acks
        a.journal_sent.mark_validated(a.process_id)
        a.journal_recv.discard(a.journal_recv.keys()[:1])
        a.msg_log.append(2, held[0])
        assert a.make_snapshot() != frozen

        restored = checkpoint.restore_state()
        assert restored == frozen
        restored.app_state.corrupt = True
        restored.dedup_seen.clear()
        restored.mdcd.taint_map.clear()
        assert checkpoint.restore_state() == frozen

    #: Accounted checkpoint bytes of one pinned paper schedule
    #: (coordinated, campaign seed 7, ``random:14``): (stable,
    #: volatile).  The copying ``make_snapshot`` of PR 19 wrote
    #: (45837, 1829) / (44628, 1829); PR 21 took the scalar
    #: ``taint_sn`` slot out of every packed journal record and
    #: ``taint_sn`` / ``dirty_sources`` out of every ``mdcd`` section
    #: (-1 993 stable, -94 volatile).  Running the paper peer on the
    #: per-source-provenance engine made its dirty sends piggyback its
    #: taint map, and its ``mdcd`` section carry the per-source
    #: registers: (43844, 1735) -> (44158, 1753), +314 / +18.
    PINNED_BYTES = (44158, 1753)

    def test_capture_by_reference_writes_the_same_bytes(self):
        from repro.audit import AuditConfig, build_audit_system
        from repro.audit.generator import generate_schedules
        config = AuditConfig(scheme="coordinated", seed=7, schedules=24)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:14")
        system = build_audit_system(config, schedule)
        system.run()
        nodes = system.nodes.values()
        assert (sum(node.stable.bytes_written for node in nodes),
                sum(node.volatile.bytes_written for node in nodes)
                ) == self.PINNED_BYTES


class TestCompaction:
    def test_compacts_only_past_retention(self, sim, plain_pair):
        a, b = plain_pair
        a.journal_retention = 50.0
        [m] = b.send_internal(Payload(1), [a.process_id], sn=1, dirty_bit=0,
                              validated=True)
        sim.run()
        assert a.compact_journals() == 0  # now < retention
        sim.schedule_at(100.0, lambda: None)
        sim.run()
        assert a.compact_journals() == 1
        assert a.journal_recv.get(m.dedup_key) is None


class TestDeposedAndActions:
    def test_deposed_rejects_deliveries(self, sim, plain_pair):
        a, b = plain_pair
        b.depose()
        a.send_internal(Payload(1), [b.process_id], sn=1, dirty_bit=0,
                        validated=True)
        sim.run()
        assert b.counters.get("dropped.deposed") == 1

    def test_deposed_ignores_actions(self, plain_pair):
        a, _ = plain_pair
        a.depose()
        a.perform_action(step_action())
        assert a.component.state.steps_applied == 0

    def test_local_step_action_executes(self, plain_pair):
        a, _ = plain_pair
        a.perform_action(step_action())
        assert a.component.state.steps_applied == 1

    def test_default_send_internal_uses_peers(self, sim, plain_pair):
        a, b = plain_pair
        a.perform_action(Action(index=0, kind=ActionKind.SEND_INTERNAL,
                                gap=0.0, stimulus=5))
        sim.run()
        assert b.counters.get("recv.applied") == 1

    def test_default_send_external(self, sim, network, plain_pair):
        a, _ = plain_pair
        a.perform_action(Action(index=0, kind=ActionKind.SEND_EXTERNAL,
                                gap=0.0, stimulus=5))
        sim.run()
        assert len(network.device_log) == 1
