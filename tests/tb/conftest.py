"""Fixtures for TB engine tests."""

import pytest

from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.sim.clock import ClockConfig
from repro.sim.network import NetworkConfig
from repro.tb.blocking import TbConfig


@pytest.fixture
def tb_system():
    """Factory: a three-process system with real TB timers and an
    otherwise-quiet workload, driven manually."""
    def build(scheme=Scheme.COORDINATED, seed=4, interval=10.0,
              horizon=500.0, delta=0.02, **overrides):
        quiet = WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                               step_rate=0.001, horizon=horizon)
        config = SystemConfig(
            scheme=scheme, seed=seed, horizon=horizon,
            clock=overrides.pop("clock", ClockConfig(delta=delta, rho=1e-6)),
            network=overrides.pop("network",
                                  NetworkConfig(t_min=0.002, t_max=0.02)),
            tb=overrides.pop("tb", TbConfig(interval=interval)),
            workload1=overrides.pop("workload1", quiet),
            workload2=overrides.pop("workload2", quiet),
            stable_history=100,
            **overrides)
        system = build_system(config)
        system.start()
        return system
    return build
