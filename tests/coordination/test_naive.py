"""Tests for the naive combination's wiring and its characteristic
interference (complements the end-to-end Fig. 4 scenarios)."""

from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.tb.original import OriginalTbEngine
from repro.topology.engines import TopologyPeerEngine
from repro.types import StableContent


class TestBuilder:
    def test_builds_naive_scheme(self):
        system = build_system(scheme=Scheme.NAIVE, seed=3, horizon=100.0)
        assert system.config.scheme is Scheme.NAIVE
        assert isinstance(system.peer.software, TopologyPeerEngine)
        assert isinstance(system.peer.hardware, OriginalTbEngine)

    def test_overrides_cannot_change_scheme(self):
        # A keyword override replaces the config's scheme.
        system = build_system(SystemConfig(scheme=Scheme.COORDINATED, seed=3,
                                           horizon=100.0), scheme=Scheme.NAIVE)
        assert system.config.scheme is Scheme.NAIVE
        assert isinstance(system.peer.hardware, OriginalTbEngine)


class TestInterference:
    def test_confidence_oblivious_stable_contents(self):
        """The defining flaw: the original TB saves the *current* state
        even when the dirty bit says it is potentially contaminated."""
        from repro.app.workload import WorkloadConfig
        from repro.tb.blocking import TbConfig
        horizon = 500.0
        system = build_system(SystemConfig(
            scheme=Scheme.NAIVE, seed=5, horizon=horizon,
            tb=TbConfig(interval=20.0),
            workload1=WorkloadConfig(internal_rate=0.2, external_rate=0.002,
                                     step_rate=0.02, horizon=horizon),
            workload2=WorkloadConfig(internal_rate=0.1, external_rate=0.002,
                                     step_rate=0.02, horizon=horizon),
            stable_history=100))
        system.run()
        dirty_current_state = 0
        for proc in system.process_list():
            for ckpt in proc.node.stable.history(proc.process_id):
                assert ckpt.content is StableContent.CURRENT_STATE
                if ckpt.meta.get("dirty_bit") == 1:
                    dirty_current_state += 1
        # With rare validations the system is dirty most of the time:
        # many stable checkpoints captured contaminated-marked states.
        assert dirty_current_state > 10
