"""Shared small types used across the :mod:`repro` packages.

This module holds the vocabulary of the paper: process roles, checkpoint
types, message kinds, and a few type aliases.  Keeping them in one place
prevents import cycles between the protocol packages.
"""

from __future__ import annotations

import enum
from typing import NewType, Optional

#: Simulated "true" time, in seconds.  The simulator's master clock.
TrueTime = NewType("TrueTime", float)

#: A local (possibly drifting) clock reading, in seconds.
LocalTime = NewType("LocalTime", float)

#: Identifier of a simulated node (hardware host).
NodeId = NewType("NodeId", str)

#: Identifier of a simulated process.
ProcessId = NewType("ProcessId", str)


class Role(enum.Enum):
    """The three process roles of the paper's system model (Section 2.1).

    * ``ACTIVE_1`` — ``P1_act``: the active process running the
      low-confidence version of component 1.  It drives the external
      world and interacts with ``P2``.
    * ``SHADOW_1`` — ``P1_sdw``: the shadow process running the
      high-confidence version of component 1.  Its outgoing messages are
      suppressed and logged; it takes over if ``P1_act`` fails an AT.
    * ``PEER_2`` — ``P2``: the (active) process of the second,
      high-confidence component.
    """

    ACTIVE_1 = "P1_act"
    SHADOW_1 = "P1_sdw"
    PEER_2 = "P2"

    @classmethod
    def of(cls, process_id: str) -> Optional["Role"]:
        """The paper role ``process_id`` names, if any."""
        try:
            return cls(process_id)
        except ValueError:
            return None


class CheckpointKind(enum.Enum):
    """Classification of checkpoints, following the paper's terminology.

    * ``TYPE_1`` — volatile checkpoint taken *immediately before* a
      process state becomes potentially contaminated (Fig. 1).
    * ``TYPE_2`` — volatile checkpoint taken *right after* a potentially
      contaminated state is validated by an acceptance test (original
      MDCD only; removed by the modified protocol of Section 3).
    * ``PSEUDO`` — ``P1_act``'s volatile checkpoint driven by the
      ``pseudo_dirty_bit`` in the modified protocol (Fig. 3).
    * ``STABLE`` — a stable-storage checkpoint written by a TB protocol
      (timer-driven) or by the write-through baseline (passed-AT-driven).
    """

    TYPE_1 = "type-1"
    TYPE_2 = "type-2"
    PSEUDO = "pseudo"
    STABLE = "stable"


class StableContent(enum.Enum):
    """What the adapted TB protocol wrote into a stable checkpoint.

    * ``CURRENT_STATE`` — the process state at timer expiry (clean
      process, original-TB behaviour).
    * ``VOLATILE_COPY`` — a copy of the most recent volatile checkpoint
      (dirty process).
    * ``SWAPPED_TO_CURRENT`` — the copy was aborted mid-blocking because
      a "passed AT" with matching ``Ndc`` arrived, and the current state
      was written instead (Fig. 6(b)).
    """

    CURRENT_STATE = "current-state"
    VOLATILE_COPY = "volatile-copy"
    SWAPPED_TO_CURRENT = "swapped-to-current"


class MessageKind(enum.Enum):
    """Kinds of messages exchanged in the simulated system.

    * ``INTERNAL`` — application-purpose message between processes;
      conveys intermediate computation results.
    * ``EXTERNAL`` — message to an external system/device; subject to
      acceptance testing when the sender is potentially contaminated.
    * ``PASSED_AT`` — broadcast notification that an acceptance test
      succeeded; carries the sender's message sequence number and its
      stable-checkpoint epoch ``Ndc``.
    * ``ACK`` — network-level acknowledgement (used by the TB protocols
      to track unacknowledged messages).
    """

    INTERNAL = "internal"
    EXTERNAL = "external"
    PASSED_AT = "passed_AT"
    ACK = "ack"


class RecoveryAction(enum.Enum):
    """A process's local decision during software error recovery."""

    ROLLBACK = "rollback"
    ROLL_FORWARD = "roll-forward"


class FaultKind(enum.Enum):
    """Categories of injected faults."""

    SOFTWARE_DESIGN = "software-design"
    HARDWARE_CRASH = "hardware-crash"
