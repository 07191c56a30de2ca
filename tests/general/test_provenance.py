"""Unit tests for the provenance machinery of the peer mesh: taint
maps, coverage-gated cleaning, and replay deduplication, on a manually
driven ``1x1+3`` membership."""

import pytest

from repro.app.workload import Action, ActionKind, WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.messages.message import (Message, MsgIdAllocator,
                                   passed_at_notification)
from repro.tb.blocking import TbConfig
from repro.types import CheckpointKind, MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()

ACTIVE = "C1_act"


def action(kind=ActionKind.SEND_INTERNAL, stimulus=0, index=10_000_000):
    return Action(index=index, kind=kind, gap=0.0, stimulus=stimulus)


@pytest.fixture
def quiet_system():
    """A manually-driven 1x1+3 system (negligible own workload)."""
    horizon = 1000.0
    quiet = WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                           step_rate=0.001, horizon=horizon)
    system = build_system(SystemConfig(
        topology="1x1+3", seed=2, horizon=horizon,
        tb=TbConfig(interval=10_000.0), workload1=quiet, workload2=quiet))
    system.start()
    return system


def settle(system, dt=1.0):
    system.sim.run(until=system.sim.now + dt)


def send_active_to(system, peer_index, count=1):
    """Route the active's internal sends to a specific peer via the
    stimulus (``P1`` is index 0)."""
    for _ in range(count):
        system.member(ACTIVE).software.on_send_internal(
            action(stimulus=peer_index))
        settle(system)


def relay(system, sender, stimulus=1):
    """One peer-to-peer internal send (stimulus-routed among the
    sender's fellow peers)."""
    system.member(sender).software.on_send_internal(
        action(stimulus=stimulus))
    settle(system)


class TestTaintPropagation:
    def test_direct_contamination_sets_taint_to_sn(self, quiet_system):
        system = quiet_system
        send_active_to(system, 0)  # sn=1 -> P1
        p1 = system.member("P1")
        assert p1.mdcd.dirty_bit == 1
        assert p1.mdcd.taint_map == {ACTIVE: 1}

    def test_transitive_contamination_carries_taint(self, quiet_system):
        system = quiet_system
        send_active_to(system, 0)  # P1 tainted at sn=1
        relay(system, "P1")
        contaminated = [p for p in (system.member("P2"), system.member("P3"))
                        if p.mdcd.dirty_bit == 1]
        assert len(contaminated) == 1
        assert contaminated[0].mdcd.taint_map == {ACTIVE: 1}

    def test_taint_is_monotone_max(self, quiet_system):
        system = quiet_system
        send_active_to(system, 0, count=3)  # sns 1..3 all to P1
        assert system.member("P1").mdcd.taint_map == {ACTIVE: 3}


class TestCoverageCleaning:
    def test_covering_validation_cleans(self, quiet_system):
        system = quiet_system
        send_active_to(system, 0)
        p1 = system.member("P1")
        note = passed_at_notification(ProcessId(ACTIVE), p1.process_id,
                                      msg_sn=1, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        p1.dispatch(note)
        assert p1.mdcd.dirty_bit == 0
        assert not p1.mdcd.taint_map

    def test_uncovered_validation_does_not_clean(self, quiet_system):
        system = quiet_system
        send_active_to(system, 0, count=2)  # taint = 2
        p1 = system.member("P1")
        note = passed_at_notification(ProcessId(ACTIVE), p1.process_id,
                                      msg_sn=1, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        p1.dispatch(note)
        assert p1.mdcd.dirty_bit == 1
        assert p1.counters.get("passed_at.uncovered") == 1

    def test_third_party_validation_cannot_clean_unrelated_taint(self, quiet_system):
        """The original hypothesis finding: X's AT must not clean Y's
        contamination arriving through a different slice."""
        system = quiet_system
        send_active_to(system, 0, count=2)   # P1 tainted at sn<=2
        send_active_to(system, 1)            # P2 tainted at sn=3
        p1, p2 = system.member("P1"), system.member("P2")
        # P1's AT certifies only up to its own record (sn=2).
        p1.software.on_send_external(action(kind=ActionKind.SEND_EXTERNAL))
        settle(system)
        assert p1.mdcd.dirty_bit == 0
        assert p2.mdcd.dirty_bit == 1      # sn=3 not covered by bound 2
        assert p2.mdcd.taint_map == {ACTIVE: 3}

    def test_own_at_certifies_whole_frontier(self, quiet_system):
        system = quiet_system
        send_active_to(system, 0, count=2)
        p1 = system.member("P1")
        p1.software.on_send_external(action(kind=ActionKind.SEND_EXTERNAL))
        settle(system)
        assert p1.mdcd.dirty_bit == 0
        assert p1.mdcd.vr_map == {ACTIVE: 2}  # frontier broadcast as the bound

    def test_validated_at_receipt_by_bound(self, quiet_system):
        system = quiet_system
        p2 = system.member("P2")
        note = passed_at_notification(ProcessId(ACTIVE), p2.process_id,
                                      msg_sn=5, ndc=0,
                                      msg_id=system.msg_ids.allocate())
        p2.dispatch(note)
        send_active_to(system, 1)  # sn=1 <= bound 5
        assert p2.mdcd.dirty_bit == 0
        recs = p2.journal_recv.records(sender=ProcessId(ACTIVE))
        assert recs and recs[0].validated


class TestReplayDedup:
    def test_internal_sends_carry_dsn(self, quiet_system):
        system = quiet_system
        p1 = system.member("P1")
        relay(system, "P1")
        relay(system, "P1")
        target = next(p for p in (system.member("P2"), system.member("P3"))
                      if p.journal_recv.records(sender=p1.process_id))
        dsns = [r.dsn for r in target.journal_recv.records(sender=p1.process_id)]
        assert dsns == [1, 2]

    def test_dedup_key_stable_across_regeneration(self):
        a = Message(kind=MessageKind.INTERNAL, sender=ProcessId("P2"),
                    receiver=ProcessId("P3"), dsn=7, msg_id=IDS.allocate())
        b = Message(kind=MessageKind.INTERNAL, sender=ProcessId("P2"),
                    receiver=ProcessId("P3"), dsn=7, msg_id=IDS.allocate())
        assert a.msg_id != b.msg_id
        assert a.dedup_key == b.dedup_key

    def test_dsn_counters_rewind_with_rollback(self, quiet_system):
        system = quiet_system
        p1 = system.member("P1")
        checkpoint = p1.capture_checkpoint(CheckpointKind.TYPE_1)
        relay(system, "P1")
        p1.restore_from(checkpoint, "software")
        # Replay reuses dsn=1 for the same destination: the regenerated
        # message deduplicates against the original at the receiver.
        relay(system, "P1")
        receivers = [p for p in system.process_list()
                     if p.counters.get("recv.duplicate")]
        assert len(receivers) == 1

    def test_coordinated_scheme_carries_dsn(self):
        # The adapted TB's checkpoint swap can anchor a process before
        # sends its peers reflect receiving; the coordinated schemes
        # therefore carry dsn so rolled-back replay deduplicates (found
        # by the schedule audit — see DESIGN.md).
        system = build_system(SystemConfig(scheme=Scheme.COORDINATED,
                                           seed=1, horizon=300.0))
        system.run()
        recs = system.peer.journal_recv.records(sender=system.active.process_id)
        assert recs and all(r.dsn is not None for r in recs)

    def test_naive_scheme_has_no_dsn(self):
        # The paper-faithful original protocols stay dsn-free.
        system = build_system(SystemConfig(scheme=Scheme.NAIVE,
                                           seed=1, horizon=300.0))
        system.run()
        recs = system.peer.journal_recv.records(sender=system.active.process_id)
        assert recs and all(r.dsn is None for r in recs)
