#!/usr/bin/env python
"""Beyond three processes: a guarded upgrade in a K-peer constellation.

The paper fixes three processes "for simplicity and clarity" and cites
follow-up work removing the restriction.  This example runs a ``1x1+5``
membership: one upgraded flight-software component (active + escorting
shadow) feeding **five** peer subsystems that also talk to each other —
so when the upgrade's latent fault activates, potential contamination
spreads *transitively* through the constellation and must be traced
back (provenance) before validations can clean it.

Run:  python examples/constellation.py
"""

from repro.analysis import check_system_line
from repro.analysis.global_state import common_stable_line
from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import SystemConfig, build_system
from repro.tb.blocking import TbConfig

HORIZON = 6_000.0
PEERS = 5


def main() -> None:
    config = SystemConfig(
        topology=f"1x1+{PEERS}", seed=7, horizon=HORIZON,
        tb=TbConfig(interval=60.0),
        workload1=WorkloadConfig(internal_rate=0.06, external_rate=0.01,
                                 step_rate=0.02, horizon=HORIZON),
        workload2=WorkloadConfig(internal_rate=0.05, external_rate=0.008,
                                 step_rate=0.02, horizon=HORIZON))
    system = build_system(config)
    system.inject_software_fault(SoftwareFaultPlan(activate_at=1_500.0))
    system.inject_crash(HardwareFaultPlan(node_id="NP3", crash_at=4_000.0,
                                          repair_time=2.0))
    system.run()

    print(f"=== Constellation: guarded pair + {PEERS} peers "
          f"({len(system.process_list())} processes) ===\n")

    # How far did the contamination wavefront reach before detection?
    reached = [str(p.process_id) for p in system.process_list()
               if p.counters.get("checkpoint.type-1") > 0]
    detection = system.trace.last("at.fail")
    print(f"fault active at t=1500; detected at "
          f"t={detection.time:.1f} by {detection.process}")
    print(f"processes that entered potential contamination at least once: "
          f"{reached}")

    print(f"\nshadow takeover completed: "
          f"{bool(system.sw_recovery.completed)}")
    print("local recovery decisions:",
          {str(k): v.value for k, v in system.sw_recovery.decisions.items()})
    print(f"suppressed messages re-sent by the shadow: "
          f"{system.sw_recovery.resent}")

    print(f"\nhardware recoveries: {system.hw_recovery.recoveries}; "
          f"rollback distances: "
          f"{[round(d, 1) for d in system.hw_recovery.distances()]}")

    clean = all(not p.component.state.corrupt
                for p in system.process_list() if not p.deposed)
    violations = check_system_line(common_stable_line(system),
                                   topology=system.topology)
    print(f"\nall in-service states non-contaminated: {clean}")
    print(f"final hardware-recovery line violations: "
          f"{len(violations) or 'none'}")
    corrupt_out = sum(1 for m in system.network.device_log if m.corrupt)
    print(f"corrupt external messages that escaped: {corrupt_out} "
          f"of {len(system.network.device_log)}")


if __name__ == "__main__":
    main()
