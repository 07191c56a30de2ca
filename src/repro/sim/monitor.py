"""Lightweight statistics collectors used across experiments.

No numpy dependency here on purpose: the collectors are updated on hot
simulation paths, and Welford accumulation in plain Python is both fast
enough and exact for the sample sizes involved.  The experiment layer
converts the results to whatever the reporting needs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional


# Two-sided 95% Student-t critical values by degrees of freedom.  The
# quick benches run campaigns with a handful of replications; for those
# sample sizes the normal z=1.96 understates the interval badly (df=1
# needs 12.7).  Past df=29 the t distribution is within 2% of normal and
# the table hands over to z.
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045,
}

_Z_CRITICAL_95 = 1.96


def t_critical_95(df: int) -> float:
    """Two-sided 95% critical value: Student-t for small ``df``, normal
    approximation from 30 degrees of freedom on."""
    if df < 1:
        return _Z_CRITICAL_95
    return _T_CRITICAL_95.get(df, _Z_CRITICAL_95)


class RunningStat:
    """Streaming mean / variance / extrema (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one observation into the statistic."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.stdev / math.sqrt(self.count) if self.count else 0.0

    def confidence_halfwidth(self, z: Optional[float] = None) -> float:
        """Half-width of a 95% confidence interval for the mean.

        With fewer than 30 samples the critical value comes from the
        Student-t distribution (the sample variance is itself noisy);
        larger samples use the normal approximation.  Pass ``z`` to
        force a specific critical value.
        """
        if z is None:
            z = t_critical_95(self.count - 1)
        return z * self.stderr


@dataclasses.dataclass
class CounterSet:
    """A named bag of integer counters."""

    counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    def bump(self, name: str, by: int = 1) -> None:
        """Increment ``name`` by ``by``."""
        self.counts[name] = self.counts.get(name, 0) + by

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never bumped)."""
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Copy of all counters."""
        return dict(self.counts)


def summarize(values: List[float]) -> RunningStat:
    """Build a :class:`RunningStat` from a list in one call."""
    stat = RunningStat()
    for v in values:
        stat.add(v)
    return stat
