"""Fixtures for MDCD engine tests: manually-driven guarded systems."""

import pytest

from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.tb.blocking import TbConfig


@pytest.fixture
def manual_system():
    """Factory: a three-process system with (effectively) no workload of
    its own, driven by calling engine handlers directly.  TB intervals
    are long enough that no establishment interferes unless a test asks
    for one."""
    def build(scheme=Scheme.MDCD_ONLY, seed=2, horizon=500.0, **overrides):
        config = SystemConfig(
            scheme=scheme, seed=seed, horizon=horizon,
            tb=overrides.pop("tb", TbConfig(interval=10_000.0)),
            workload1=WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                                     step_rate=0.001, horizon=horizon),
            workload2=WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                                     step_rate=0.001, horizon=horizon),
            **overrides)
        system = build_system(config)
        system.start()
        return system
    return build
