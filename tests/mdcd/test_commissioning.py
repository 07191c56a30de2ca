"""Tests for upgrade commissioning (seamless coordination disengagement,
paper Section 4.2 last paragraph)."""

import pytest

from mdcd_helpers import EXTERNAL, INTERNAL, action, settle

from repro.app.faults import HardwareFaultPlan
from repro.coordination.scheme import Scheme
from repro.errors import ProtocolError
from repro.types import StableContent


def guarded_traffic(system, rounds=2):
    for _ in range(rounds):
        system.active.software.on_send_internal(action(INTERNAL))
        system.shadow.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)


class TestCommissioning:
    def test_rejected_after_takeover(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        system.low_version.fault_active = True
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.sw_recovery.completed
        with pytest.raises(ProtocolError):
            system.commission_upgrade()

    def test_rejected_twice(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        system.commission_upgrade()
        with pytest.raises(ProtocolError):
            system.commission_upgrade()

    def test_shadow_retired(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        guarded_traffic(system)
        system.commission_upgrade()
        assert system.shadow.deposed
        assert len(system.shadow.msg_log) == 0
        assert system.peer.software.routes == [[system.active.process_id]]

    def test_dirty_bits_stay_zero(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        guarded_traffic(system)
        system.commission_upgrade()
        system.active.software.on_send_internal(action(INTERNAL))
        settle(system)
        system.peer.software.on_send_internal(action(INTERNAL))
        settle(system)
        assert system.active.mdcd.dirty_bit == 0
        assert system.peer.mdcd.dirty_bit == 0

    def test_no_more_acceptance_tests(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        system.commission_upgrade()
        before = system.active.counters.get("at.pass")
        system.active.software.on_send_external(action(EXTERNAL))
        settle(system)
        assert system.active.counters.get("at.pass") == before

    def test_history_validated_and_acks_released(self, manual_system):
        system = manual_system(scheme=Scheme.COORDINATED)
        guarded_traffic(system)
        assert len(system.active.acks) > 0  # deferred acks pending
        system.commission_upgrade()
        settle(system)
        assert len(system.active.acks) == 0
        assert not system.peer.journal_recv.records(validated=False)


class TestAdaptedTbDegeneratesToOriginal:
    def test_post_commission_contents_are_current_state(self, manual_system):
        from repro.tb.blocking import TbConfig
        system = manual_system(scheme=Scheme.COORDINATED,
                               tb=TbConfig(interval=10.0))
        guarded_traffic(system)
        system.commission_upgrade()
        commissioned_at = system.sim.now
        system.sim.run(until=commissioned_at + 50.0)
        for proc in (system.active, system.peer):
            for ckpt in proc.node.stable.history(proc.process_id):
                if ckpt.taken_at > commissioned_at and ckpt.epoch:
                    assert ckpt.content is StableContent.CURRENT_STATE

    def test_hardware_recovery_still_works(self, manual_system):
        from repro.tb.blocking import TbConfig
        system = manual_system(scheme=Scheme.COORDINATED,
                               tb=TbConfig(interval=10.0))
        guarded_traffic(system)
        system.commission_upgrade()
        t = system.sim.now
        system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=t + 25.0,
                                              repair_time=1.0))
        system.sim.run(until=t + 40.0)
        assert system.hw_recovery.recoveries == 1
        # Only the two in-service processes roll back.
        assert len(system.hw_recovery.records) == 2
        assert not system.peer.component.state.corrupt
