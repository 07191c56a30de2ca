"""Closed-form rollback-distance model.

The paper evaluates the coordination with a "model-based comparative
study" whose details it omits for space; this module supplies a renewal-
theory model that predicts the two Figure 7 quantities and is validated
against the discrete-event simulation in ``tests/analysis``.

Notation (all rates are per second):

* ``lambda_v`` — rate of *validation events* (successful ATs).  These
  are the guarded active's external sends (always AT-tested) plus the
  unguarded peer's external sends that happen while dirty:
  ``lambda_v = l_ext1 + f_d2 * l_ext2`` (solved self-consistently, since
  ``f_d2`` itself depends on ``lambda_v``).
* ``f_d(p)`` — fraction of time process ``p`` is dirty: an alternating
  renewal process that becomes dirty at the first contaminating message
  after a validation (rate ``lambda_onset``) and is cleaned at the next
  validation (rate ``lambda_v``): ``f_d = lambda_onset / (lambda_onset +
  lambda_v)``.

**Write-through** (``E[D_wt]``): stable checkpoints are established at
every validation event, so a hardware fault at a random time undoes on
average the age of the current inter-validation interval.  For (approx.)
Poisson validations the length-biased mean age is ``1/lambda_v``.

**Coordinated** (``E[D_co]``): stable checkpoints are established every
``Delta`` seconds.  A fault at a random time undoes the time back to the
last establishment (mean ``Delta/2``) plus the age of the establishment
contents: zero if the process was clean at its timer expiry, else the
age of the volatile checkpoint copied (mean dirty-period age
``1/lambda_onset`` for exponential onset — the content was captured at
dirty onset).  Conditioning on the establishment having been dirty with
probability ``f_d``:

    E[D_co] ~= Delta/2 + f_d / lambda_onset ... where the second term is
    the expected time from dirty onset to timer expiry, i.e. the
    length-biased age of the dirty period at a random instant,
    1/lambda_v for exponential validations.

(The age of the copied volatile checkpoint at expiry equals the elapsed
dirty time, whose stationary mean is ``1/lambda_v``; see the derivation
in EXPERIMENTS.md.)
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Workload and protocol parameters of the model.

    Rates are per second; ``tb_interval`` is the adapted TB protocol's
    ``Delta``.
    """

    internal_rate1: float
    external_rate1: float
    internal_rate2: float
    external_rate2: float
    tb_interval: float

    def __post_init__(self) -> None:
        for name in ("internal_rate1", "external_rate1",
                     "internal_rate2", "external_rate2", "tb_interval"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.external_rate1 <= 0:
            raise ConfigurationError(
                "the model needs external_rate1 > 0 "
                "(the guarded active must run ATs)")


def validation_rate(params: ModelParams, iterations: int = 50) -> float:
    """Self-consistent validation-event rate ``lambda_v``.

    The unguarded peer contributes an AT only when dirty; its dirty
    fraction depends on ``lambda_v`` itself, so iterate to the fixed
    point (monotone, converges in a handful of steps).
    """
    lam = params.external_rate1
    for _ in range(iterations):
        f_d2 = dirty_fraction(params.internal_rate1, lam)
        lam_next = params.external_rate1 + f_d2 * params.external_rate2
        if abs(lam_next - lam) < 1e-15:
            lam = lam_next
            break
        lam = lam_next
    return lam


def dirty_fraction(onset_rate: float, validation_rate_: float) -> float:
    """Stationary dirty-time fraction of the alternating renewal
    process: ``onset / (onset + validation)`` (0 when nothing dirties)."""
    if onset_rate <= 0:
        return 0.0
    if validation_rate_ <= 0:
        return 1.0
    return onset_rate / (onset_rate + validation_rate_)


def expected_rollback_write_through(params: ModelParams) -> float:
    """``E[D_wt]``: the mean age since the last validation event."""
    return 1.0 / validation_rate(params)


def expected_rollback_coordinated(params: ModelParams,
                                  onset_rate: float = None) -> float:
    """``E[D_co]`` for a process whose dirty-onset rate is
    ``onset_rate`` (default: the unguarded peer's, i.e. the guarded
    active's internal message rate)."""
    lam_v = validation_rate(params)
    onset = params.internal_rate1 if onset_rate is None else onset_rate
    f_d = dirty_fraction(onset, lam_v)
    content_age_when_dirty = 1.0 / lam_v
    return params.tb_interval / 2.0 + f_d * content_age_when_dirty
