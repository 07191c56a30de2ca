"""Unit tests for the closed-form rollback model."""

import pytest

from repro.analysis.model import (
    ModelParams,
    dirty_fraction,
    expected_rollback_coordinated,
    expected_rollback_write_through,
    validation_rate,
)
from repro.errors import ConfigurationError


def params(**kw):
    defaults = dict(internal_rate1=0.001, external_rate1=0.01,
                    internal_rate2=0.001, external_rate2=0.002,
                    tb_interval=6.0)
    defaults.update(kw)
    return ModelParams(**defaults)


def gap(p):
    """``E[D_wt] / E[D_co]`` — the paper's Fig. 7 gap."""
    return expected_rollback_write_through(p) / expected_rollback_coordinated(p)


class TestValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            params(internal_rate1=-1.0)

    def test_requires_active_external_rate(self):
        with pytest.raises(ConfigurationError):
            params(external_rate1=0.0)


class TestDirtyFraction:
    def test_zero_onset_is_never_dirty(self):
        assert dirty_fraction(0.0, 1.0) == 0.0

    def test_zero_validation_is_always_dirty(self):
        assert dirty_fraction(1.0, 0.0) == 1.0

    def test_balanced_rates_give_half(self):
        assert dirty_fraction(2.0, 2.0) == pytest.approx(0.5)

    def test_monotone_in_onset_rate(self):
        assert dirty_fraction(0.1, 1.0) < dirty_fraction(0.5, 1.0)


class TestValidationRate:
    def test_at_least_the_active_rate(self):
        assert validation_rate(params()) >= 0.01

    def test_bounded_by_total_external_rate(self):
        assert validation_rate(params()) <= 0.012 + 1e-12

    def test_fixed_point_consistency(self):
        p = params()
        lam = validation_rate(p)
        f_d2 = dirty_fraction(p.internal_rate1, lam)
        assert lam == pytest.approx(p.external_rate1
                                    + f_d2 * p.external_rate2, rel=1e-6)


class TestExpectations:
    def test_write_through_is_inverse_validation_rate(self):
        p = params()
        assert expected_rollback_write_through(p) == \
            pytest.approx(1.0 / validation_rate(p))

    def test_coordinated_has_interval_floor(self):
        p = params()
        assert expected_rollback_coordinated(p) >= p.tb_interval / 2.0

    def test_coordinated_grows_with_internal_rate(self):
        low = expected_rollback_coordinated(params(internal_rate1=0.0005))
        high = expected_rollback_coordinated(params(internal_rate1=0.01))
        assert high > low

    def test_gap_erodes_as_dirty_fraction_saturates(self):
        sparse = gap(params(internal_rate1=0.0005))
        saturated = gap(params(internal_rate1=1.0))
        assert sparse > 3.0
        assert saturated < sparse
        assert saturated < 1.5

    def test_small_interval_widens_gap(self):
        wide = gap(params(tb_interval=1.0))
        narrow = gap(params(tb_interval=50.0))
        assert wide > narrow
