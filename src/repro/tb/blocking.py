"""Blocking-period policy — the quantitative heart of Table 1.

The original TB protocol blocks for ``delta + 2*rho*tau - t_min`` after
a checkpoint write starts (long enough that a message sent after my
checkpoint cannot reach a peer before the peer's own timer expires);
the adapted protocol keeps that length for *clean* processes and extends
it to ``delta + 2*rho*tau + t_max`` for *dirty* ones, so that any
in-flight "passed AT" notification sent before the notifier's timer
expiry is guaranteed to arrive within the blocking window and can flip
the in-progress checkpoint's contents (paper Section 4.2):

    tau(b) = delta + 2*rho*t_elapsed + Tm(b),
    Tm(b)  = b * t_max - (1 - b) * t_min.
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigurationError
from ..runtime import ClockConfig, NetworkConfig

#: Request a timer resynchronization when the worst-case blocking
#: period of the *next* establishment would exceed this fraction of the
#: interval (our reading of the guard at the end of the paper's Fig. 5:
#: resynchronize before clock drift inflates blocking beyond
#: usefulness).
RESYNC_LIMIT_FRACTION = 0.25


@dataclasses.dataclass(frozen=True)
class TbConfig:
    """Configuration of a TB checkpointing engine.

    Attributes
    ----------
    interval:
        The checkpointing interval ``Delta`` (local-clock seconds
        between stable checkpoint establishments).
    swap_on_confidence_change:
        The adapted protocol's responsiveness: abort a volatile-copy
        establishment and write the current state instead when the dirty
        bit flips to clean mid-blocking.  Disabling it reproduces the
        recoverability violation of paper Fig. 4(b) (ablation).
    blocking_enabled:
        Disabling the blocking period reproduces the consistency
        violations of paper Fig. 2(a) (ablation): the establishment
        completes after only the storage write latency and no deliveries
        are buffered.
    save_unacked:
        The Neves-Fuchs recoverability mechanism: save every
        unacknowledged message as part of the checkpoint and re-send
        during recovery.  Disabling it (ablation) reproduces the
        in-transit-message recoverability violation of Fig. 2(a) even
        when blocking is on — demonstrating that blocking alone ensures
        only consistency.
    """

    interval: float = 300.0
    swap_on_confidence_change: bool = True
    blocking_enabled: bool = True
    save_unacked: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"interval must be positive: {self}")


def message_delay_term(dirty_bit: int, net: NetworkConfig) -> float:
    """The paper's ``Tm(b) = b*t_max - (1-b)*t_min``."""
    b = 1 if dirty_bit else 0
    return b * net.t_max - (1 - b) * net.t_min


def blocking_period(dirty_bit: int, clock: ClockConfig,
                    elapsed_since_resync: float, net: NetworkConfig,
                    floor: float = 0.0) -> float:
    """The adapted protocol's ``tau(b) = delta + 2*rho*t + Tm(b)``.

    ``floor`` lower-bounds the result (a stable write takes at least the
    storage latency; the blocking period overlaps the write).  With
    ``dirty_bit == 0`` this coincides with the original TB protocol's
    blocking period.
    """
    return max(floor, clock.max_skew(elapsed_since_resync)
               + message_delay_term(dirty_bit, net))


def worst_case_blocking(clock: ClockConfig, elapsed_since_resync: float,
                        net: NetworkConfig) -> float:
    """``tau(1)`` — the dirty-process blocking period, used by the
    resynchronization guard."""
    return blocking_period(1, clock, elapsed_since_resync, net)
