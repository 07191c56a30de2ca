"""Rollback distances read back from the trace: every
``FtProcess.restore_from`` records a ``recovery.rollback.<reason>``
entry, and those entries agree with the recovery managers' own lists."""

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.coordination.scheme import Scheme, SystemConfig, build_system


def run_with_faults(seed=5, horizon=3000.0):
    system = build_system(SystemConfig(scheme=Scheme.COORDINATED, seed=seed,
                                       horizon=horizon))
    system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=1000.0,
                                          repair_time=1.0))
    system.inject_software_fault(SoftwareFaultPlan(activate_at=2000.0))
    system.run()
    return system


def traced_distances(system, reason):
    return [rec.data["distance"]
            for rec in system.trace.records(f"recovery.rollback.{reason}")]


class TestExtraction:
    def test_hardware_distances_match_coordinator(self):
        system = run_with_faults()
        from_trace = traced_distances(system, "hardware")
        from_coordinator = system.hw_recovery.distances()
        assert sorted(from_trace) == sorted(from_coordinator)

    def test_software_distances_recorded_on_takeover(self):
        system = run_with_faults()
        assert system.sw_recovery.completed
        distances = traced_distances(system, "software")
        assert len(distances) == len(system.sw_recovery.distances)
