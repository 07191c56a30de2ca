"""Unit tests for the system builder."""

import pytest

from repro.coordination.scheme import Scheme, System, SystemConfig, build_system
from repro.mdcd.original import OriginalActiveEngine
from repro.coordination.naive import build_naive_system
from repro.coordination.write_through import WriteThroughEngine
from repro.tb.adapted import AdaptedTbEngine
from repro.tb.original import OriginalTbEngine
from repro.topology.engines import TopologyActiveEngine
from repro.types import Role


class TestSchemeEnum:
    def test_stable_checkpoint_capability(self):
        assert not Scheme.MDCD_ONLY.has_stable_checkpoints
        for scheme in (Scheme.WRITE_THROUGH, Scheme.NAIVE,
                       Scheme.COORDINATED, Scheme.COORDINATED_NO_SWAP):
            assert scheme.has_stable_checkpoints

    def test_modified_mdcd_usage(self):
        assert Scheme.COORDINATED.uses_modified_mdcd
        assert Scheme.COORDINATED_NO_SWAP.uses_modified_mdcd
        assert not Scheme.NAIVE.uses_modified_mdcd


class TestWiring:
    def test_coordinated_uses_modified_and_adapted(self):
        system = build_system(SystemConfig(scheme=Scheme.COORDINATED))
        assert isinstance(system.active.software, TopologyActiveEngine)
        assert isinstance(system.active.hardware, AdaptedTbEngine)
        assert system.resync is not None
        assert system.hw_recovery is not None

    def test_naive_uses_original_both(self):
        system = build_naive_system()
        assert isinstance(system.active.software, OriginalActiveEngine)
        assert isinstance(system.active.hardware, OriginalTbEngine)

    def test_write_through_engine(self):
        system = build_system(SystemConfig(scheme=Scheme.WRITE_THROUGH))
        assert isinstance(system.active.software, OriginalActiveEngine)
        assert isinstance(system.active.hardware, WriteThroughEngine)
        assert system.resync is None

    def test_mdcd_only_has_no_hardware_engine(self):
        system = build_system(SystemConfig(scheme=Scheme.MDCD_ONLY))
        assert system.active.hardware is None
        assert system.hw_recovery is None

    def test_no_swap_scheme_disables_swap(self):
        system = build_system(SystemConfig(scheme=Scheme.COORDINATED_NO_SWAP))
        assert not system.active.hardware.config.swap_on_confidence_change

    def test_three_distinct_nodes(self):
        system = build_system(SystemConfig())
        nodes = {proc.node.node_id for proc in system.process_list()}
        assert len(nodes) == 3

    def test_role_accessors(self):
        system = build_system(SystemConfig())
        assert system.active.role is Role.ACTIVE_1
        assert system.shadow.role is Role.SHADOW_1
        assert system.peer.role is Role.PEER_2

    def test_recovery_manager_installed(self):
        system = build_system(SystemConfig())
        for proc in system.process_list():
            assert proc.recovery_manager is system.sw_recovery


class TestConfig:
    def test_with_scheme_keeps_everything_else(self):
        base = SystemConfig(seed=9, horizon=123.0)
        other = base.with_scheme(Scheme.NAIVE)
        assert other.scheme is Scheme.NAIVE
        assert other.seed == 9 and other.horizon == 123.0

    def test_build_system_overrides(self):
        system = build_system(seed=77, scheme=Scheme.NAIVE)
        assert system.config.seed == 77
        assert system.config.scheme is Scheme.NAIVE


class TestExecution:
    def test_start_is_idempotent(self):
        system = build_system(SystemConfig(horizon=50.0))
        system.start()
        system.start()
        system.run(until=10.0)

    def test_run_defaults_to_horizon(self):
        system = build_system(SystemConfig(horizon=50.0))
        system.run()
        assert system.sim.now == 50.0

    def test_determinism_same_seed(self):
        def run(seed):
            system = build_system(SystemConfig(seed=seed, horizon=800.0))
            system.run()
            return (system.peer.component.state.value,
                    system.sim.events_executed,
                    {str(k): v for k, v in system.peer.counters.as_dict().items()})
        assert run(42) == run(42)

    def test_different_seeds_differ(self):
        def run(seed):
            system = build_system(SystemConfig(seed=seed, horizon=800.0))
            system.run()
            return system.sim.events_executed
        assert run(42) != run(43)

    def test_shadow_tracks_active_computation(self):
        system = build_system(SystemConfig(seed=3, horizon=2000.0))
        system.run()
        # Same version behaviour (no fault), same inputs: identical state.
        assert (system.shadow.component.state.value
                == system.active.component.state.value)
