"""Tests for the scenario reproductions and the Table 1 harness.

The benchmarks run these at full size; here each scenario's *claim* is
asserted (reduced sizes where the scenario allows it).
"""

import pytest

from repro.experiments.scenarios import (
    PairSystem,
    figure1_checkpoint_pattern,
    figure2_tb_blocking,
    figure3_modified_pattern,
    figure4a_naive_loss,
    figure4b_in_transit_notification,
    figure6_coordination_cases,
)
from repro.experiments.table1 import Table1Config, format_table1, run_table1
from repro.sim.clock import ClockConfig
from repro.sim.network import NetworkConfig
from repro.tb.blocking import TbConfig


class TestScenarioClaims:
    def test_figure1(self):
        result = figure1_checkpoint_pattern(horizon=3000.0)
        assert result.passed, result.details

    def test_figure2(self):
        result = figure2_tb_blocking(horizon=250.0)
        assert result.passed, result.details

    def test_figure2_pair_draws_the_same_ids_every_run(self):
        """Fig. 2's pair owns its message-id sequence: two runs in one
        OS process mint identical ids (no process-global state)."""
        def run():
            pair = PairSystem(seed=3, tb=TbConfig(interval=5.0),
                              clock=ClockConfig(delta=0.5, rho=1e-6),
                              net=NetworkConfig(t_min=0.005, t_max=0.02),
                              message_rate=4.0, horizon=60.0)
            pair.run()
            return [record.key for proc in pair.process_list()
                    for record in proc.journal_sent.records()]
        first = run()
        assert first and first == run()

    def test_figure3(self):
        result = figure3_modified_pattern(horizon=3000.0)
        assert result.passed, result.details

    def test_figure4a(self):
        # Default horizon: the scenario's fault timing is tuned to the
        # default action stream (the stream is horizon-dependent).
        result = figure4a_naive_loss()
        assert result.passed, result.details

    def test_figure4b(self):
        result = figure4b_in_transit_notification(max_seeds=20)
        assert result.passed, result.details

    def test_figure6(self):
        result = figure6_coordination_cases(horizon=2000.0)
        assert result.passed, result.details


class TestTable1:
    @pytest.fixture(scope="class")
    def observations(self):
        return run_table1(Table1Config(horizon=3000.0))

    def test_original_is_confidence_oblivious(self, observations):
        orig = observations["original"]
        assert orig.blocking_dirty.count == 0
        assert set(orig.contents) == {"current-state"}

    def test_adapted_contents_follow_dirty_bit(self, observations):
        adap = observations["adapted"]
        assert adap.contents.get("volatile-copy", 0) > 0
        assert adap.contents.get("current-state", 0) > 0

    def test_notifications_blocked_only_by_original(self, observations):
        assert observations["original"].blocked_kinds.get("passed_AT", 0) > 0
        assert observations["adapted"].blocked_kinds.get("passed_AT", 0) == 0

    def test_formatting_renders(self, observations):
        text = format_table1(observations, Table1Config(horizon=3000.0))
        assert "Blocking period" in text
        assert "volatile-copy" in text
