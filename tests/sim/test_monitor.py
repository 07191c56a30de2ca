"""Unit tests for the statistics collectors."""

import math
import statistics

import pytest

from repro.sim.monitor import CounterSet, RunningStat, TimeWeightedValue, summarize


class TestRunningStat:
    def test_empty_stat_defaults(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.stderr == 0.0

    def test_matches_statistics_module(self):
        values = [3.0, 1.5, 4.0, 1.0, 5.9, 2.6]
        stat = summarize(values)
        assert stat.mean == pytest.approx(statistics.fmean(values))
        assert stat.variance == pytest.approx(statistics.variance(values))
        assert stat.stdev == pytest.approx(statistics.stdev(values))

    def test_min_max(self):
        stat = summarize([2.0, -1.0, 7.0])
        assert stat.minimum == -1.0
        assert stat.maximum == 7.0

    def test_single_sample_variance_zero(self):
        stat = summarize([4.2])
        assert stat.variance == 0.0

    def test_stderr(self):
        values = [1.0, 2.0, 3.0, 4.0]
        stat = summarize(values)
        assert stat.stderr == pytest.approx(statistics.stdev(values) / 2.0)

    def test_confidence_halfwidth_small_sample_uses_t(self):
        stat = summarize([1.0, 2.0, 3.0, 4.0])
        # df = 3 -> t = 3.182, wider than the normal 1.96.
        assert stat.confidence_halfwidth() == pytest.approx(3.182 * stat.stderr)
        assert stat.confidence_halfwidth() > 1.96 * stat.stderr

    def test_confidence_halfwidth_large_sample_uses_normal(self):
        stat = summarize([float(i) for i in range(40)])
        assert stat.confidence_halfwidth() == pytest.approx(1.96 * stat.stderr)

    def test_confidence_halfwidth_explicit_z_wins(self):
        stat = summarize([1.0, 2.0])
        assert stat.confidence_halfwidth(z=2.0) == pytest.approx(2.0 * stat.stderr)

    def test_t_critical_monotone_to_normal(self):
        from repro.sim.monitor import t_critical_95
        values = [t_critical_95(df) for df in range(1, 35)]
        assert values == sorted(values, reverse=True)
        assert t_critical_95(29) == pytest.approx(2.045)
        assert t_critical_95(30) == 1.96


class TestTimeWeightedValue:
    def test_constant_signal(self):
        signal = TimeWeightedValue(2.0, at=0.0)
        assert signal.integral(10.0) == pytest.approx(20.0)
        assert signal.mean(10.0) == pytest.approx(2.0)

    def test_step_change(self):
        signal = TimeWeightedValue(0.0, at=0.0)
        signal.set(1.0, at=4.0)
        assert signal.integral(10.0) == pytest.approx(6.0)
        assert signal.mean(10.0) == pytest.approx(0.6)

    def test_value_tracks_current(self):
        signal = TimeWeightedValue(0.0, at=0.0)
        signal.set(3.0, at=1.0)
        assert signal.value == 3.0

    def test_zero_span_mean_returns_value(self):
        signal = TimeWeightedValue(7.0, at=5.0)
        assert signal.mean(5.0) == 7.0


class TestCounterSet:
    def test_bump_and_get(self):
        counters = CounterSet()
        counters.bump("a")
        counters.bump("a", by=2)
        assert counters.get("a") == 3

    def test_missing_counter_is_zero(self):
        assert CounterSet().get("missing") == 0

    def test_as_dict_copies(self):
        counters = CounterSet()
        counters.bump("a")
        copy = counters.as_dict()
        copy["a"] = 99
        assert counters.get("a") == 1
