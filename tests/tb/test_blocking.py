"""Unit tests for the blocking-period formulas and TB configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import ClockConfig
from repro.sim.network import NetworkConfig
from repro.tb.blocking import (
    TbConfig,
    blocking_period,
    message_delay_term,
    worst_case_blocking,
)

CLOCK = ClockConfig(delta=0.1, rho=1e-5)
NET = NetworkConfig(t_min=0.01, t_max=0.05)


class TestConfig:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ConfigurationError):
            TbConfig(interval=0.0)

    def test_defaults_enable_everything(self):
        config = TbConfig()
        assert config.swap_on_confidence_change
        assert config.blocking_enabled
        assert config.save_unacked


class TestDelayTerm:
    def test_dirty_uses_tmax(self):
        assert message_delay_term(1, NET) == pytest.approx(0.05)

    def test_clean_uses_negative_tmin(self):
        assert message_delay_term(0, NET) == pytest.approx(-0.01)


class TestBlockingPeriod:
    def test_clean_formula(self):
        # tau(0) = delta + 2*rho*t - t_min
        assert blocking_period(0, CLOCK, 0.0, NET) == pytest.approx(0.09)

    def test_dirty_formula(self):
        # tau(1) = delta + 2*rho*t + t_max
        assert blocking_period(1, CLOCK, 0.0, NET) == pytest.approx(0.15)

    def test_drift_term_grows_with_elapsed(self):
        short = blocking_period(1, CLOCK, 0.0, NET)
        long = blocking_period(1, CLOCK, 10_000.0, NET)
        assert long == pytest.approx(short + 2 * 1e-5 * 10_000.0)

    def test_floor_applies(self):
        assert blocking_period(0, ClockConfig(delta=0.0, rho=0.0), 0.0, NET,
                               floor=0.03) == 0.03

    def test_never_negative(self):
        tiny = ClockConfig(delta=0.001, rho=0.0)
        assert blocking_period(0, tiny, 0.0, NET) == 0.0

    def test_dirty_exceeds_clean_by_tmax_plus_tmin(self):
        gap = (blocking_period(1, CLOCK, 5.0, NET)
               - blocking_period(0, CLOCK, 5.0, NET))
        assert gap == pytest.approx(NET.t_max + NET.t_min)

    def test_worst_case_is_dirty(self):
        assert worst_case_blocking(CLOCK, 7.0, NET) == \
            blocking_period(1, CLOCK, 7.0, NET)
