"""Unit tests for hardware error recovery (the global rollback)."""

import pytest

from tb_helpers import EXTERNAL, INTERNAL, action, run_to

from repro.app.faults import HardwareFaultPlan
from repro.coordination.scheme import Scheme
from repro.errors import RecoveryError
from repro.tb.hardware_recovery import (agree_line, line_report,
                                        retention_floor)


def crash_and_recover(system, node="N2", at=25.0, repair=1.0, until=40.0):
    system.inject_crash(HardwareFaultPlan(node_id=node, crash_at=at,
                                          repair_time=repair))
    run_to(system, until)


class TestGlobalRollback:
    def test_all_processes_roll_back(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system)
        assert system.hw_recovery.recoveries == 1
        assert len(system.hw_recovery.records) == 3
        assert {r.process_id for r in system.hw_recovery.records} == \
            {p.process_id for p in system.process_list()}

    def test_line_is_min_common_epoch(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system, at=25.0)
        # Two establishments (10, 20) completed before the crash at 25.
        assert all(r.epoch == 2 for r in system.hw_recovery.records)

    def test_distances_are_nonnegative_and_bounded(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system, at=25.0)
        for record in system.hw_recovery.records:
            assert 0.0 <= record.distance < 25.0

    def test_crashed_process_distance_measured_to_crash(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system, at=25.0, repair=5.0)
        peer_record = next(r for r in system.hw_recovery.records
                           if r.process_id == system.peer.process_id)
        # Rolled from crash time (25) back to the epoch-2 state (~20):
        # the 5 s repair outage adds no undone work.
        assert peer_record.distance == pytest.approx(5.0, abs=1.0)

    def test_crash_before_any_establishment_uses_genesis(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system, at=5.0, until=8.0)
        assert all(r.epoch == 0 for r in system.hw_recovery.records)

    def test_timers_rearm_after_recovery(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system, at=25.0, until=60.0)
        # Establishments continue after the recovery.
        assert all(p.hardware.ndc >= 4 for p in system.process_list())

    def test_incarnation_bumped(self, tb_system):
        system = tb_system(interval=10.0)
        before = system.incarnation.value
        crash_and_recover(system)
        assert system.incarnation.value == before + 1


class TestRecoverabilityMechanics:
    def _send_just_before_expiry(self, system, epoch_local_time=20.0):
        """Schedule a clean P2 internal send so close to its own timer
        expiry that the acknowledgement cannot return before the state
        is captured — the message lands in the checkpoint's saved
        unacknowledged set (the Neves-Fuchs recoverability mechanism)."""
        expiry = system.peer.node.timers.clock.true_time_of(epoch_local_time)
        system.sim.schedule_at(
            expiry - 0.003,
            lambda: system.peer.software.on_send_internal(action(INTERNAL)))

    def test_in_flight_message_saved_and_resent(self, tb_system):
        system = tb_system(interval=10.0)
        self._send_just_before_expiry(system)
        crash_and_recover(system, at=25.0)
        assert system.peer.counters.get("resent") >= 1

    def test_resends_are_deduplicated_or_reapplied_exactly_once(self, tb_system):
        system = tb_system(interval=10.0)
        self._send_just_before_expiry(system)
        crash_and_recover(system, at=25.0)
        # Whether or not the shadow's restored state reflected the
        # original receipt, after recovery the message is applied
        # exactly once.
        assert system.shadow.component.state.inputs_applied == 1

    def test_dirty_message_ack_deferred_until_validated(self, tb_system):
        system = tb_system(interval=10.0)
        # The active's dirty message is applied at P2 but its ack is
        # deferred — the message stays in the active's unacknowledged
        # set, hence restorable — until a validation covers it.
        system.sim.schedule_at(
            12.0, lambda: system.active.software.on_send_internal(action(INTERNAL)))
        run_to(system, 15.0)
        assert len(system.active.acks) == 1
        assert system.peer.counters.get("ack.deferred") == 1
        # The active passes an AT: the validation reaches P2, which
        # releases the deferred ack.
        system.sim.schedule_at(
            15.5, lambda: system.active.software.on_send_external(action(EXTERNAL)))
        run_to(system, 17.0)
        assert system.peer.counters.get("ack.released") == 1
        assert len(system.active.acks) == 0

    def test_ground_truth_clean_after_recovery(self, tb_system):
        system = tb_system(interval=10.0)
        crash_and_recover(system)
        for proc in system.process_list():
            assert not proc.component.state.corrupt

    def test_workload_resumes_after_recovery(self, tb_system):
        system = tb_system(interval=10.0, horizon=100.0)
        crash_and_recover(system, at=25.0, until=100.0)
        for proc in system.process_list():
            assert not proc.driver._paused


class TestRepeatedCrashes:
    def test_multiple_recoveries(self, tb_system):
        system = tb_system(interval=10.0, horizon=200.0)
        system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=25.0,
                                              repair_time=1.0))
        system.inject_crash(HardwareFaultPlan(node_id="N1a", crash_at=65.0,
                                              repair_time=1.0))
        system.inject_crash(HardwareFaultPlan(node_id="N1b", crash_at=115.0,
                                              repair_time=1.0))
        run_to(system, 200.0)
        assert system.hw_recovery.recoveries == 3
        assert len(system.hw_recovery.distances()) == 9
        assert all(d >= 0 for d in system.hw_recovery.distances())


class TestLineAgreement:
    def test_line_is_min_epoch_and_boundary_the_max_reported(self):
        assert agree_line([("a", 4, 7), ("b", 3, None), ("c", 5, 8)]) == (3, 8)

    def test_no_timer_anywhere_agrees_no_boundary(self):
        assert agree_line([("a", 2, None), ("b", 2, None)]) == (2, None)

    def test_missing_genesis_raises(self):
        with pytest.raises(RecoveryError, match="b has no stable checkpoint"):
            agree_line([("a", 2, 5), ("b", None, 5)])

    def test_reports_read_the_chain_and_the_engine(self, tb_system):
        system = tb_system(interval=10.0)
        run_to(system, 25.0)
        for proc in system.process_list():
            assert line_report(proc) == (
                proc.process_id, 2, proc.hardware.next_boundary_index())

    def test_write_through_reports_no_boundary(self, tb_system):
        system = tb_system(scheme=Scheme.WRITE_THROUGH)
        assert line_report(system.peer) == (system.peer.process_id, 0, None)


class TestRetentionFloor:
    def test_floor_is_the_oldest_newest_epoch_of_the_down(self):
        assert retention_floor([("P2", 9, 11), ("P3", 7, None)]) == 7

    def test_nothing_down_holds_nothing(self):
        assert retention_floor([]) is None
        assert retention_floor([("P2", None, None)]) is None


def _long_outage(history, crashes=((200.0, 45.0), (247.0, 1.0))):
    """Seed 3, a 20 s TB interval, ``N2`` down 200 -> 245 s (two TB
    intervals longer than a two-epoch history) and, by default, once
    more briefly.  Returns the system and, per recovery, the epoch each
    process restored."""
    from repro.coordination.scheme import SystemConfig, build_system
    from repro.tb.blocking import TbConfig
    system = build_system(SystemConfig(scheme=Scheme.COORDINATED, seed=3,
                                       horizon=400.0, stable_history=history,
                                       tb=TbConfig(interval=20.0)))
    recoveries = [{}]

    def on_record(rec):
        if rec.category == "recovery.rollback.hardware":
            recoveries[-1][rec.process] = rec.data["epoch"]
            return
        # Each chain still holds the checkpoint it restored.
        for process_id, epoch in recoveries[-1].items():
            proc = system.members[process_id]
            assert epoch in proc.node.stable.epochs(process_id)
        recoveries.append({})

    system.trace.subscribe(on_record, names=(
        "recovery.rollback.hardware", "recovery.hardware.done"))
    for crash_at, repair_time in crashes:
        system.inject_crash(HardwareFaultPlan(
            node_id="N2", crash_at=crash_at, repair_time=repair_time))
    return system, recoveries


class TestLongOutage:
    def test_every_process_restores_the_line(self):
        """An outage longer than the retained history: the survivors
        hold every epoch from N2's newest on, so all three processes
        restore the same line — epoch 9 — and each chain keeps the
        checkpoint it restored for the next crash."""
        system, recoveries = _long_outage(history=2)
        system.run()
        assert system.hw_recovery.recoveries == 2
        restored = recoveries[:-1]
        assert len(restored) == 2
        assert restored[0] == dict.fromkeys(
            (proc.process_id for proc in system.process_list()), 9)
        for epochs in restored:
            assert len(set(epochs.values())) == 1, epochs

    def test_rollbacks_match_a_history_that_never_trims_the_line(self):
        rollbacks = {}
        for history in (2, 8):
            system, _ = _long_outage(history=history)
            system.run()
            rollbacks[history] = [
                (rec.time, rec.process, dict(rec.data))
                for rec in system.trace.records("recovery.rollback.hardware")]
        assert rollbacks[2] == rollbacks[8]
        assert rollbacks[2]

    def test_a_survivors_chain_trims_back_to_history_after_recovery(self):
        system, _ = _long_outage(history=2, crashes=((200.0, 45.0),))
        survivor = system.members["P1_act"]
        store = survivor.node.stable
        system.run(until=244.0)
        held = store.epochs(survivor.process_id)
        assert store.floor == 9
        assert held[0] <= 9 and len(held) > 2
        system.run(until=246.0)
        assert store.floor is None
        system.run(until=300.0)
        for proc in system.process_list():
            assert len(proc.node.stable.history(proc.process_id)) == 2
