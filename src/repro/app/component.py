"""Deterministic, replayable application components.

The MDCD protocol treats the application as a black box that consumes
and produces *internal* messages (intermediate results exchanged with
the other component) and *external* messages (commands/data sent to
devices).  What matters to the protocols is only (a) the timing of those
messages and (b) how corruption propagates: an erroneous process state
yields erroneous outgoing messages, and receiving an erroneous message
contaminates the receiver's state (the paper's key assumption,
Section 2.1).

:class:`AppState` implements the smallest state machine with exactly
those properties.  Its ``value`` accumulator is updated *commutatively*
(addition of per-input contributions), so the active and shadow replicas
of component 1 converge to the same state given the same multiset of
inputs even though message arrivals interleave differently on their two
nodes.  The hidden ``corrupt`` flag is the ground truth the analysis
package audits protocol views against; protocol code never reads it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional


@dataclasses.dataclass
class Payload:
    """An application payload: a number plus ground-truth corruption."""

    value: int
    corrupt: bool = False


@dataclasses.dataclass
class AppState:
    """Checkpointable application state.

    Attributes
    ----------
    value:
        The commutative accumulator (the "computation result").
    inputs_applied:
        How many internal payloads have been folded in.
    steps_applied:
        How many local computation steps have run.
    corrupt:
        Ground truth: whether an activated design fault has affected
        this state (directly or via a received corrupt payload).
    """

    #: Snapshot section this state is encoded under (see
    #: :mod:`repro.snapshot.sections`).
    snapshot_section = "app"

    value: int = 0
    inputs_applied: int = 0
    steps_applied: int = 0
    corrupt: bool = False

    def apply_payload(self, payload: Payload) -> None:
        """Fold a received internal payload into the state."""
        self.value += payload.value
        self.inputs_applied += 1
        if payload.corrupt:
            self.corrupt = True

    def apply_step(self, stimulus: int) -> None:
        """Run one local computation step."""
        self.value += _mix(stimulus)
        self.steps_applied += 1


def _mix(x: int) -> int:
    """A cheap deterministic integer hash, so values look 'computed'."""
    x = (x ^ (x >> 13)) * 0x5BD1E995
    return (x ^ (x >> 15)) & 0x7FFFFFFF


class ApplicationComponent:
    """One application software component bound to a version.

    The component produces payloads through its
    :class:`~repro.app.versions.SoftwareVersion`, which is where design
    faults live: a faulty version perturbs produced values and marks them
    (ground truth) corrupt.

    Parameters
    ----------
    name:
        For traces.
    version:
        The software version computing this component's outputs.
    """

    def __init__(self, name: str, version: "SoftwareVersionLike") -> None:
        self.name = name
        self.version = version
        self.state = AppState()

    # ------------------------------------------------------------------
    def receive_internal(self, payload: Payload) -> None:
        """Consume an internal message's payload."""
        self.state.apply_payload(payload)

    def local_step(self, stimulus: int) -> None:
        """Execute one local computation step."""
        self.state.apply_step(stimulus)

    def produce_internal(self, stimulus: int) -> Payload:
        """Compute an internal (intermediate-result) payload."""
        return self.version.compute(self.state, stimulus)

    def produce_external(self, stimulus: int) -> Payload:
        """Compute an external (command/data) payload.

        External payloads inherit the state's ground-truth corruption —
        this is what makes the paper's key assumption hold: a successful
        acceptance test on an external message certifies the sender's
        state (see :mod:`repro.app.acceptance`).
        """
        return self.version.compute(self.state, stimulus)

    # ------------------------------------------------------------------
    # checkpointing support
    # ------------------------------------------------------------------
    def restore(self, state: AppState) -> None:
        """Replace the live state with a (restored) copy."""
        self.state = dataclasses.replace(state)

    def describe(self) -> Dict[str, Any]:
        """Summary for traces and reports."""
        return {
            "name": self.name,
            "value": self.state.value,
            "corrupt": self.state.corrupt,
            "inputs": self.state.inputs_applied,
            "steps": self.state.steps_applied,
            "version": self.version.name,
        }


class SoftwareVersionLike:
    """Structural interface for versions (see :mod:`repro.app.versions`)."""

    name: str

    def compute(self, state: AppState, stimulus: int) -> Payload:  # pragma: no cover
        """Produce an output payload from the state and stimulus."""
        raise NotImplementedError
