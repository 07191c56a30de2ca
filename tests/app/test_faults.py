"""Unit tests for the fault plans and their arming on a built system."""

import pytest

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.coordination.scheme import build_system
from repro.errors import ConfigurationError


def _fault_records(system, category):
    return [(rec.time, rec.data) for rec in system.trace.records(category)]


class TestSoftwareFaultPlan:
    def test_rejects_negative_activation(self):
        with pytest.raises(ConfigurationError):
            SoftwareFaultPlan(activate_at=-1.0)

    def test_rejects_deactivation_before_activation(self):
        with pytest.raises(ConfigurationError):
            SoftwareFaultPlan(activate_at=5.0, deactivate_at=4.0)


class TestSoftwareInjector:
    def test_activates_at_time(self):
        system = build_system(seed=1)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=10.0))
        system.run(until=9.0)
        assert not system.low_version.fault_active
        system.run(until=10.5)
        assert system.low_version.fault_active

    def test_transient_window_deactivates(self):
        system = build_system(seed=1)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=5.0,
                                                       deactivate_at=8.0))
        system.run(until=6.0)
        assert system.low_version.fault_active
        system.run(until=9.0)
        assert not system.low_version.fault_active
        version = system.low_version.name
        assert _fault_records(system, "fault.software.deactivate") == [
            (8.0, {"kind": "software-design", "version": version})]

    def test_traces_activation(self):
        system = build_system(seed=1)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=1.0))
        system.run(until=2.0)
        assert _fault_records(system, "fault.software.activate") == [
            (1.0, {"kind": "software-design",
                   "version": system.low_version.name})]


class TestHardwareFaultPlan:
    def test_rejects_negative_times(self):
        with pytest.raises(ConfigurationError):
            HardwareFaultPlan(node_id="N", crash_at=-1.0)
        with pytest.raises(ConfigurationError):
            HardwareFaultPlan(node_id="N", crash_at=1.0, repair_time=-1.0)


class TestHardwareInjector:
    def test_crash_and_restart_cycle(self):
        system = build_system(seed=1)
        node = system.nodes["N2"]
        system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=2.0,
                                              repair_time=3.0))
        system.run(until=2.5)
        assert node.crashed
        system.run(until=5.5)
        assert not node.crashed and node.crash_count == 1

    def test_traces_crash_and_restart(self):
        system = build_system(seed=1)
        system.inject_crash(HardwareFaultPlan(node_id="N1a", crash_at=1.0,
                                              repair_time=1.0))
        system.run(until=3.0)
        assert _fault_records(system, "fault.crash") == [
            (1.0, {"kind": "hardware-crash", "node": "N1a"})]
        assert _fault_records(system, "fault.restart") == [
            (2.0, {"node": "N1a"})]

