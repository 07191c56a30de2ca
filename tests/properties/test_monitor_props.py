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

