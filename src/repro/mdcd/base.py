"""Common machinery for the MDCD protocol engines.

Each of the paper's three process roles has its own error-containment
algorithm (Appendix A); the engines share bookkeeping: acceptance-test
execution, validity-view updates on the journals, the ``Ndc`` gate for
"passed AT" notifications, and a validation-event hook that the
write-through baseline uses to trigger stable Type-2 saves.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..app.acceptance import AcceptanceTest
from ..app.workload import Action
from ..messages.message import Message
from ..types import ProcessId


class MdcdEngineBase:
    """Base class for per-role MDCD engines.

    Parameters
    ----------
    process:
        The hosting :class:`~repro.host.FtProcess`.
    at:
        The acceptance test (roles that validate external messages).
    ndc_gating:
        Whether "passed AT" handling compares the piggybacked stable
        checkpoint epoch ``Ndc`` with the local one (the modified
        protocol's rule; the original protocol has no ``Ndc``).
    """

    #: Human-readable protocol variant tag, overridden by subclasses.
    variant = "mdcd"

    def __init__(self, process, at: Optional[AcceptanceTest] = None,
                 ndc_gating: bool = False) -> None:
        self.process = process
        self.at = at
        self.ndc_gating = ndc_gating
        self._validation_listeners: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # shortcuts
    # ------------------------------------------------------------------
    @property
    def mdcd(self):
        """The process's MDCD knowledge state."""
        return self.process.mdcd

    @property
    def now(self) -> float:
        """Current simulated true time."""
        return self.process.sim.now

    def trace(self, category: str, **data) -> None:
        """Record a trace entry attributed to this engine's process."""
        recorder = self.process.trace
        if recorder.enabled:
            recorder.record(self.now, category, self.process.process_id, **data)

    def set_dirty(self, value: int, reason: str = "") -> None:
        """Set the dirty bit, tracing the transition (the timeline
        renderer reconstructs the paper's shaded contamination intervals
        from these records)."""
        if self.mdcd.dirty_bit != value:
            self.trace("confidence.dirty" if value else "confidence.clean",
                       bit="dirty", reason=reason)
        self.mdcd.dirty_bit = value

    def set_pseudo_dirty(self, value: int, reason: str = "") -> None:
        """Set ``P1_act``'s pseudo dirty bit, tracing the transition."""
        if self.mdcd.pseudo_dirty_bit != value:
            self.trace("confidence.dirty" if value else "confidence.clean",
                       bit="pseudo", reason=reason)
        self.mdcd.pseudo_dirty_bit = value

    # ------------------------------------------------------------------
    # validation-event hook (write-through baseline subscribes here)
    # ------------------------------------------------------------------
    def on_validation(self, listener: Callable[[bool], None]) -> None:
        """Register a callback fired after every validation event (own
        AT success, or an accepted "passed AT" notification).

        The callback receives ``type2``: whether the event validated a
        *potentially contaminated* state, i.e. whether the original
        protocol would establish a Type-2 checkpoint here.  A clean
        process learning of someone else's AT success has nothing to
        validate, so no Type-2 (and, in the write-through variant, no
        stable save) results.
        """
        self._validation_listeners.append(listener)

    def _notify_validation(self, type2: bool) -> None:
        for listener in list(self._validation_listeners):
            listener(type2)

    # ------------------------------------------------------------------
    # shared pieces
    # ------------------------------------------------------------------
    def ndc_matches(self, message: Message) -> bool:
        """The modified protocol's gate: act on a "passed AT" iff its
        piggybacked ``Ndc`` equals the local ``Ndc``.

        With gating disabled (original protocol) every notification is
        acted upon.  A notification from a process that has already
        completed its current stable-checkpoint establishment carries a
        higher ``Ndc`` and is ignored until the local establishment
        catches up — the paper's Section 4.2 parenthetical.
        """
        if not self.ndc_gating:
            return True
        return message.ndc == self.process.current_ndc()

    def run_acceptance_test(self, payload) -> bool:
        """Run the AT and trace the outcome."""
        passed = self.at.test(payload)
        self.trace("at.pass" if passed else "at.fail",
                   corrupt=payload.corrupt)
        self.process.counters.bump("at.pass" if passed else "at.fail")
        return passed

    def validate_knowledge(self, bound: Optional[int] = None,
                           source: Optional[ProcessId] = None) -> None:
        """Apply a validation event to the journals.

        A validation certifies the validating process's state, hence
        every message it sent or received up to that state.  The guarded
        active ``source``'s messages are additionally bounded by the
        validated sequence number ``bound`` (the notification's
        ``msg_SN``), because its sequence numbers are the coordinate
        system of the valid message register.
        """
        for journal in (self.process.journal_sent, self.process.journal_recv):
            for rec in journal.records(validated=False):
                if rec.sender == source:
                    if bound is not None and rec.sn is not None and rec.sn <= bound:
                        rec.validated = True
                else:
                    rec.validated = True
        # Newly-validated received messages can now be acknowledged: the
        # process's future rollback targets reflect them.
        self.process.flush_deferred_acks()

    # ------------------------------------------------------------------
    # hooks implemented by role engines
    # ------------------------------------------------------------------
    def on_send_internal(self, action: Action) -> None:  # pragma: no cover
        """Handle an application-initiated internal send."""
        raise NotImplementedError

    def on_send_external(self, action: Action) -> None:  # pragma: no cover
        """Handle an application-initiated external send."""
        raise NotImplementedError

    def on_passed_at(self, message: Message) -> None:  # pragma: no cover
        """Handle a received "passed AT" notification."""
        raise NotImplementedError

    def on_incoming_app(self, message: Message) -> None:  # pragma: no cover
        """Handle a received application message."""
        raise NotImplementedError
