"""Acceptance tests (AT).

MDCD validates only *external* messages, and only those sent from a
potentially contaminated state — external messages are commands/data
that simple reasonableness checks can validate, unlike intermediate
results (paper Section 2.1).  A successful AT certifies not just the
message but, under the paper's key assumption, the sender's state and
every message sent or received before the test.

The simulation models an AT as a detector over the ground-truth
``corrupt`` flag with configurable *coverage* (probability a corrupt
message is caught) and *false-alarm* probability.  The paper's analysis
assumes a perfect AT; the defaults match that, and the ablation benches
sweep coverage to show how the guarantees degrade.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import ConfigurationError
from ..sim.rng import RngRegistry
from .component import Payload


@dataclasses.dataclass(frozen=True)
class AcceptanceTestConfig:
    """Detector quality.

    ``coverage`` — P(AT fails | message corrupt); ``false_alarm`` —
    P(AT fails | message correct).
    """

    coverage: float = 1.0
    false_alarm: float = 0.0

    def __post_init__(self) -> None:
        for name in ("coverage", "false_alarm"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be a probability, got {p}")


class AcceptanceTest:
    """A stateful AT instance (owns an RNG stream and counters).  The
    stream is taken on the first draw; a perfect AT never draws."""

    def __init__(self, config: AcceptanceTestConfig,
                 rng_registry: RngRegistry, name: str) -> None:
        self.config = config
        self.name = name
        self._registry = rng_registry
        self._rng = None
        #: Monitoring counters.
        self.runs = 0
        self.passes = 0
        self.detections = 0
        self.misses = 0
        self.false_alarms = 0

    def test(self, payload: Payload) -> bool:
        """Run the AT; ``True`` means the message passed (is accepted)."""
        self.runs += 1
        if payload.corrupt:
            detected = self._bernoulli(self.config.coverage)
            if detected:
                self.detections += 1
                return False
            self.misses += 1
            self.passes += 1
            return True
        if self._bernoulli(self.config.false_alarm):
            self.false_alarms += 1
            return False
        self.passes += 1
        return True

    def _bernoulli(self, p: float) -> bool:
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        if self._rng is None:
            self._rng = self._registry.stream(f"at.{self.name}")
        return self._rng.random() < p
