"""Unit tests for fault injection."""

import pytest

from repro.app.faults import (
    HardwareFaultInjector,
    HardwareFaultPlan,
    SoftwareFaultInjector,
    SoftwareFaultPlan,
)
from repro.app.versions import LowConfidenceVersion
from repro.errors import ConfigurationError


class TestSoftwareFaultPlan:
    def test_rejects_negative_activation(self):
        with pytest.raises(ConfigurationError):
            SoftwareFaultPlan(activate_at=-1.0)

    def test_rejects_deactivation_before_activation(self):
        with pytest.raises(ConfigurationError):
            SoftwareFaultPlan(activate_at=5.0, deactivate_at=4.0)


class TestSoftwareInjector:
    def test_activates_at_time(self, sim):
        version = LowConfidenceVersion()
        injector = SoftwareFaultInjector(sim, version,
                                         SoftwareFaultPlan(activate_at=10.0))
        injector.arm()
        sim.run(until=9.0)
        assert not version.fault_active
        sim.run()
        assert version.fault_active
        assert injector.activated

    def test_transient_window_deactivates(self, sim):
        version = LowConfidenceVersion()
        SoftwareFaultInjector(sim, version,
                              SoftwareFaultPlan(activate_at=5.0,
                                                deactivate_at=8.0)).arm()
        sim.run(until=6.0)
        assert version.fault_active
        sim.run()
        assert not version.fault_active

    def test_traces_activation(self, sim, trace):
        version = LowConfidenceVersion()
        SoftwareFaultInjector(sim, version,
                              SoftwareFaultPlan(activate_at=1.0), trace).arm()
        sim.run()
        assert trace.count("fault.software.activate") == 1


class TestHardwareFaultPlan:
    def test_rejects_negative_times(self):
        with pytest.raises(ConfigurationError):
            HardwareFaultPlan(node_id="N", crash_at=-1.0)
        with pytest.raises(ConfigurationError):
            HardwareFaultPlan(node_id="N", crash_at=1.0, repair_time=-1.0)


class TestHardwareInjector:
    def test_wrong_node_rejected(self, sim, make_node):
        node = make_node("N1")
        with pytest.raises(ConfigurationError):
            HardwareFaultInjector(sim, node,
                                  HardwareFaultPlan(node_id="other", crash_at=1.0))

    def test_crash_and_restart_cycle(self, sim, make_node):
        node = make_node("N1")
        HardwareFaultInjector(sim, node,
                              HardwareFaultPlan(node_id="N1", crash_at=2.0,
                                                repair_time=3.0)).arm()
        sim.run(until=2.5)
        assert node.crashed
        sim.run()
        assert not node.crashed

    def test_traces_crash_and_restart(self, sim, make_node, trace):
        node = make_node("N1")
        HardwareFaultInjector(sim, node,
                              HardwareFaultPlan(node_id="N1", crash_at=1.0,
                                                repair_time=1.0), trace).arm()
        sim.run()
        assert trace.count("fault.crash") == 1
        assert trace.count("fault.restart") == 1
