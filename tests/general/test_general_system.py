"""One guarded component among K interacting peers — the restriction
removal the paper cites as its follow-up [5] — on ``build_system``'s
``1x1+K`` memberships (K = 1 is the paper's own three processes)."""

import pytest

from repro.analysis import check_system_line
from repro.analysis.global_state import common_stable_line, stable_line
from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import SystemConfig, build_system
from repro.tb.blocking import TbConfig
from repro.topology.engines import route
from repro.types import ProcessId


def make_system(n_peers=3, seed=5, horizon=2000.0, **overrides):
    config = SystemConfig(
        topology="paper" if n_peers == 1 else f"1x1+{n_peers}",
        seed=seed, horizon=horizon,
        tb=TbConfig(interval=40.0),
        workload1=WorkloadConfig(internal_rate=0.05, external_rate=0.01,
                                 step_rate=0.02, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.04, external_rate=0.01,
                                 step_rate=0.02, horizon=horizon),
        stable_history=200, **overrides)
    return build_system(config)


def guarded_pair(system):
    """The guarded component's (active, shadow) processes."""
    topology = system.topology
    return (system.member(topology.active_of(1).role_id),
            system.member(topology.shadows_of(1)[0].role_id))


def peers(system):
    return [system.member(p.role_id) for p in system.topology.peers()]


def line_violations(system, line):
    return check_system_line(line, topology=system.topology)


class TestConstruction:
    def test_rejects_zero_peers(self):
        with pytest.raises(ValueError):
            make_system(n_peers=0)

    def test_process_roster(self):
        system = make_system(n_peers=4)
        ids = [str(p.process_id) for p in system.process_list()]
        assert ids == ["C1_act", "C1_sdw1", "P1", "P2", "P3", "P4"]

    def test_one_node_per_process(self):
        system = make_system(n_peers=3)
        nodes = {p.node.node_id for p in system.process_list()}
        assert len(nodes) == 5

    def test_route_is_deterministic_and_covering(self):
        targets = [ProcessId(f"P{i}") for i in range(2, 6)]
        picks = {route(stim, targets) for stim in range(100)}
        assert picks == set(targets)
        assert route(7, targets) == route(7, targets)


class TestGuardedOperationAtScale:
    def test_contamination_propagates_transitively(self):
        system = make_system(n_peers=3)
        system.run()
        # Every peer eventually gets contaminated (Type-1 checkpoints),
        # even those the active never addresses directly in a given
        # window — peer-to-peer dirty messages carry the wavefront.
        for peer in peers(system):
            assert peer.counters.get("checkpoint.type-1") > 0
        # At K > 1 no application traffic flows *into* the guarded
        # pair, so the wavefront never reaches the shadow (the paper
        # shape keeps P2 -> {P1_act, P1_sdw}).
        _active, shadow = guarded_pair(system)
        assert shadow.counters.get("checkpoint.type-1") == 0

    def test_validations_clean_every_process(self):
        system = make_system(n_peers=3)
        system.run()
        for peer in peers(system):
            assert peer.counters.get("recv.passed_at") > 0

    def test_shadow_mirrors_active(self):
        system = make_system(n_peers=3)
        system.run()
        active, shadow = guarded_pair(system)
        assert shadow.component.state.value == active.component.state.value

    @pytest.mark.parametrize("n_peers", [1, 2, 5])
    def test_all_epoch_lines_valid(self, n_peers):
        system = make_system(n_peers=n_peers)
        system.run()
        common = None
        for proc in system.process_list():
            epochs = set(proc.node.stable.epochs(proc.process_id))
            common = epochs if common is None else common & epochs
        checked = 0
        for epoch in sorted(common or ()):
            line = stable_line(system, epoch=epoch)
            if len(line) < len(system.process_list()):
                continue
            checked += 1
            assert line_violations(system, line) == [], f"epoch {epoch}"
        assert checked > 10

    def test_single_peer_matches_paper_model(self):
        # K = 1 is exactly the paper's architecture.
        system = make_system(n_peers=1)
        assert system.topology.spec == "paper"
        system.run()
        assert check_system_line(common_stable_line(system)) == []


class TestRecoveryAtScale:
    def test_takeover_spans_all_peers(self):
        system = make_system(n_peers=4, horizon=3000.0)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=800.0))
        system.run()
        assert system.sw_recovery.completed
        assert len(system.sw_recovery.decisions) == 5  # shadow + 4 peers
        for proc in system.process_list():
            if not proc.deposed:
                assert not proc.component.state.corrupt

    def test_promoted_shadow_routes_to_all_peers(self):
        system = make_system(n_peers=3, horizon=4000.0)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=500.0))
        system.run()
        assert system.sw_recovery.completed
        _active, shadow = guarded_pair(system)
        for peer in peers(system):
            shadow_msgs = peer.journal_recv.records(sender=shadow.process_id)
            assert shadow_msgs, f"{peer.process_id} never heard the shadow"

    def test_crash_of_any_peer_recovers_globally(self):
        system = make_system(n_peers=3, horizon=3000.0)
        system.inject_crash(HardwareFaultPlan(node_id="NP3", crash_at=1500.0,
                                              repair_time=2.0))
        system.run()
        assert system.hw_recovery.recoveries == 1
        assert len(system.hw_recovery.records) == 5
        assert line_violations(system, common_stable_line(system)) == []

    def test_combined_faults_at_scale(self):
        system = make_system(n_peers=4, horizon=3000.0)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=800.0))
        system.inject_crash(HardwareFaultPlan(node_id="NP2", crash_at=1800.0,
                                              repair_time=2.0))
        system.run()
        assert system.sw_recovery.completed
        assert system.hw_recovery.recoveries == 1
        for proc in system.process_list():
            if not proc.deposed:
                assert not proc.component.state.corrupt

    def test_determinism(self):
        def fingerprint():
            system = make_system(n_peers=3, seed=11)
            system.run()
            return (system.sim.events_executed,
                    tuple(p.component.state.value
                          for p in system.process_list()))
        assert fingerprint() == fingerprint()
