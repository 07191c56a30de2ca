"""Tests for the Figure 7 harness (reduced sizes; the full sweep lives
in benchmarks/)."""

from repro.experiments.figure7 import (
    Figure7Config,
    Figure7Point,
    format_figure7,
    run_point,
)


def small_config():
    return Figure7Config(internal_rates=(60, 200), horizon=10_000.0,
                         replications=1)


class TestRunPoint:
    def test_point_has_samples_for_both_schemes(self):
        point = run_point(small_config(), 60)
        assert point.n_co > 5
        assert point.n_wt > 5
        assert point.n_co == point.n_wt  # paired crash schedules

    def test_coordination_wins(self):
        point = run_point(small_config(), 60)
        assert point.e_d_co < point.e_d_wt
        assert point.measured_factor > 2.0

    def test_model_attached(self):
        point = run_point(small_config(), 60)
        assert point.model_co > 0
        assert point.model_wt > point.model_co


class TestFormatting:
    def test_format_contains_series(self):
        points = [Figure7Point(internal_rate=60, e_d_co=10.0, ci_co=1.0,
                               n_co=10, e_d_wt=100.0, ci_wt=5.0, n_wt=10,
                               model_co=9.0, model_wt=95.0)]
        text = format_figure7(points)
        assert "E[D_co]" in text and "E[D_wt]" in text
        assert "60" in text
        assert "log-scale" in text
