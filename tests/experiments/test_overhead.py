"""Tests for the performance-overhead harness."""

import pytest

from repro.coordination.scheme import Scheme
from repro.experiments.overhead import (
    OverheadConfig,
    format_overhead,
    measure_scheme,
    run_overhead,
)


@pytest.fixture(scope="module")
def observations():
    return {profile.scheme: profile
            for profile in run_overhead(OverheadConfig(horizon=3000.0))}


class TestMeasurements:
    def test_all_schemes_measured(self, observations):
        assert set(observations) == {"mdcd-only", "write-through",
                                     "naive", "coordinated"}

    def test_mdcd_only_never_blocks(self, observations):
        assert observations["mdcd-only"].blocked_time_fraction == 0.0
        assert observations["mdcd-only"].stable_saves_per_hour == 0.0

    def test_blocking_fraction_small(self, observations):
        for obs in observations.values():
            assert obs.blocked_time_fraction < 0.02

    def test_modified_protocol_checkpoints_less(self, observations):
        # Type-2 elimination: the coordinated scheme takes fewer
        # volatile checkpoints than the original protocol.
        assert (observations["coordinated"].volatile_saves_per_hour
                < observations["mdcd-only"].volatile_saves_per_hour)

    def test_identical_application_behaviour(self, observations):
        # The schemes change checkpointing, not the application: the AT
        # count and notification ratio are workload properties.
        at_counts = {obs.at_runs for obs in observations.values()}
        assert len(at_counts) == 1

    def test_storage_accounting_positive(self, observations):
        coordinated = observations["coordinated"]
        assert coordinated.volatile_kb_per_hour > 0
        assert coordinated.stable_kb_per_hour > 0


class TestFormatting:
    def test_table_renders_all_rows(self, observations):
        text = format_overhead(list(observations.values()))
        for name in observations:
            assert name in text

    def test_single_scheme_measurement(self):
        obs = measure_scheme(OverheadConfig(horizon=1000.0), Scheme.COORDINATED)
        assert obs.scheme == "coordinated"
