"""Property-based sweeps over one guarded component among K peers
(``1x1+K``; K = 1 is the paper shape) and the live-state audit."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import check_live_system, check_system_line
from repro.analysis.global_state import common_stable_line
from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.tb.blocking import TbConfig

HORIZON = 500.0

slow = settings(max_examples=8, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

general_params = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=5_000),
    "n_peers": st.integers(min_value=1, max_value=5),
    "internal_rate": st.floats(min_value=0.01, max_value=0.3),
    "interval": st.floats(min_value=8.0, max_value=60.0),
})


def build(params):
    workload = WorkloadConfig(internal_rate=params["internal_rate"],
                              external_rate=0.02, step_rate=0.01,
                              horizon=HORIZON)
    return build_system(SystemConfig(
        topology=("paper" if params["n_peers"] == 1
                  else f"1x1+{params['n_peers']}"),
        seed=params["seed"], horizon=HORIZON,
        tb=TbConfig(interval=params["interval"]),
        workload1=workload, workload2=workload, trace_enabled=False))


def line_violations(system):
    return check_system_line(common_stable_line(system),
                             topology=system.topology)


@slow
@given(general_params)
def test_general_lines_valid_for_any_topology(params):
    system = build(params)
    system.run()
    assert line_violations(system) == []


@slow
@given(general_params,
       st.floats(min_value=50.0, max_value=HORIZON - 100.0))
def test_general_crash_recovery_invariants(params, crash_at):
    system = build(params)
    peers = system.topology.peers()
    node = peers[params["seed"] % len(peers)].node_id
    system.inject_crash(HardwareFaultPlan(node_id=node, crash_at=crash_at,
                                          repair_time=1.0))
    system.run()
    assert system.hw_recovery.recoveries == 1
    assert all(r.distance >= 0 for r in system.hw_recovery.records)
    assert line_violations(system) == []


@slow
@given(general_params)
def test_general_takeover_cleans_everyone(params):
    system = build(params)
    system.inject_software_fault(SoftwareFaultPlan(activate_at=HORIZON / 4.0))
    system.run()
    if system.sw_recovery.completed:
        for proc in system.process_list():
            if not proc.deposed:
                assert not proc.component.state.corrupt


@slow
@given(st.integers(min_value=0, max_value=5_000),
       st.lists(st.floats(min_value=20.0, max_value=HORIZON - 20.0),
                min_size=1, max_size=4))
def test_live_audit_clean_at_arbitrary_instants(seed, instants):
    system = build_system(SystemConfig(scheme=Scheme.COORDINATED, seed=seed,
                                       horizon=HORIZON))
    system.start()
    for t in sorted(instants):
        system.run(until=t)
        assert check_live_system(system) == []
