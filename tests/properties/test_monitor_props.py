"""Property-based tests for the statistics collectors."""

import math
import statistics

from hypothesis import given, strategies as st

from repro.sim.monitor import summarize

values = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=200)


@given(values)
def test_mean_matches_statistics(xs):
    assert summarize(xs).mean == pytest_approx(statistics.fmean(xs))


def pytest_approx(x, rel=1e-9, abs_=1e-6):
    import pytest
    return pytest.approx(x, rel=rel, abs=abs_)


@given(values)
def test_extrema_bound_mean(xs):
    stat = summarize(xs)
    assert stat.minimum <= stat.mean <= stat.maximum or math.isclose(
        stat.minimum, stat.maximum)


@given(values)
def test_variance_nonnegative(xs):
    assert summarize(xs).variance >= -1e-9


@given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=100.0),
                          st.floats(min_value=-10.0, max_value=10.0)),
                min_size=1, max_size=50))
def test_time_weighted_integral_matches_manual(segments):
    from repro.sim.monitor import TimeWeightedValue
    signal = TimeWeightedValue(0.0, at=0.0)
    t = 0.0
    manual = 0.0
    current = 0.0
    for duration, value in segments:
        manual += current * duration
        t += duration
        signal.set(value, at=t)
        current = value
    assert signal.integral(t) == pytest_approx(manual, rel=1e-6, abs_=1e-6)
