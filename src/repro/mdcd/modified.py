"""The modified MDCD error-containment algorithms (paper Section 3 and
Appendix A, Figs. 8-10).

Differences from the original protocol, all in support of coordination
with the adapted TB protocol:

* ``P1_act`` maintains a ``pseudo_dirty_bit`` and establishes a volatile
  *pseudo checkpoint* immediately before sending the first internal
  message after a validation, so it can participate in stable checkpoint
  lines (its actual dirty bit stays constant 1).
* Type-2 checkpoint establishment is **eliminated** — the coordination
  makes error recovery independent of Type-2 checkpoints (Fig. 3).
* "passed AT" handling is gated by the piggybacked stable-checkpoint
  epoch: the dirty (or pseudo dirty) bit is reset iff ``m.Ndc`` equals
  the local ``Ndc``.
* During a TB blocking period application messages are buffered (the
  host does this), but "passed AT" notifications are still monitored so
  an in-progress stable establishment can react to a confidence change.

Checkpoint-ordering note: Appendix A increments ``msg_SN`` *before* the
pseudo-checkpoint test and updates ``msg_SN_P1act`` *before* the Type-1
checkpoint.  We snapshot *before* either update so that a restored
process has not yet allocated the sequence number of (or recorded the
receipt of) a message the restored state does not reflect — the
"immediately before" semantics of Section 2.1.  DESIGN.md records this
as a deliberate deviation in bookkeeping order only.
"""

from __future__ import annotations

from typing import List

from ..app.acceptance import AcceptanceTest
from ..app.workload import Action
from ..messages.message import Message
from ..types import CheckpointKind, MessageKind, ProcessId, Role
from .base import MdcdEngineBase
from .recovery import TakeoverEngine


class ModifiedActiveEngine(MdcdEngineBase):
    """``P1_act`` under the modified protocol (Appendix A, Fig. 8)."""

    variant = "mdcd-modified"

    def __init__(self, process, at: AcceptanceTest,
                 peer: ProcessId, shadow: ProcessId) -> None:
        super().__init__(process, at=at, ndc_gating=True)
        self.peer = peer
        self.shadow = shadow
        process.mdcd.dirty_bit = 1        # constant during guarded operation
        process.mdcd.pseudo_dirty_bit = 0
        self.trace("confidence.dirty", bit="dirty", reason="guarded-active")

    def on_send_external(self, action: Action) -> None:
        """Fig. 8: AT-test; on success reset the pseudo dirty bit and
        broadcast the validation with the local Ndc piggybacked."""
        payload = self.process.component.produce_external(action.stimulus)
        if not self.run_acceptance_test(payload):
            self.process.request_software_recovery(
                Message(kind=MessageKind.EXTERNAL, sender=self.process.process_id,
                        receiver=ProcessId("DEVICE"), payload=payload,
                        corrupt=payload.corrupt,
                        msg_id=self.process.msg_ids.allocate()))
            return
        self.set_pseudo_dirty(0, reason="own-at")
        self.process.sn.allocate()
        self.validate_knowledge(p1act_sn=self.process.sn.current)
        self.process.send_external(payload, validated=True)
        self.process.send_passed_at([self.shadow, self.peer],
                                    msg_sn=self.process.sn.current,
                                    ndc=self.process.current_ndc())
        self._notify_validation(type2=True)

    def on_send_internal(self, action: Action) -> None:
        """Fig. 8: establish the pseudo checkpoint before the first
        internal send of a suspicion window, then send flagged dirty."""
        if self.mdcd.pseudo_dirty_bit == 0:
            # First internal send since the last validation: establish
            # the pseudo checkpoint *before* the state's suspicion window
            # opens — before the production itself (a faulty version
            # contaminates the state while computing the message, and
            # the pseudo checkpoint must anchor the last *validated*
            # state) and before the sequence number is allocated (see
            # the module docstring).
            self.process.take_volatile_checkpoint(
                CheckpointKind.PSEUDO, meta={"trigger": "first-internal-send"})
        payload = self.process.component.produce_internal(action.stimulus)
        if self.mdcd.pseudo_dirty_bit == 0:
            self.set_pseudo_dirty(1, reason="internal-send")
        sn = self.process.sn.allocate()
        self.process.send_internal(payload, [self.peer], sn=sn, dirty_bit=1,
                                   validated=False,
                                   ndc=self.process.current_ndc())

    def on_passed_at(self, message: Message) -> None:
        """Fig. 8: reset the pseudo dirty bit iff the Ndc matches.

        Conservatism guard (a deviation the schedule audit forced — see
        DESIGN.md): the notification certifies our messages only up to
        its ``msg_SN``.  If we have allocated newer sequence numbers the
        current state already depends on a produce the AT has not seen
        (the contaminating send may literally still be in flight to
        ``P2``), so the pseudo bit must stay set: resetting it here
        would let the adapted TB write a ``current-state`` stable
        checkpoint of an unvalidated — possibly contaminated — state.
        The journals are still updated up to the certified bound.
        """
        if not self.ndc_matches(message):
            self.process.counters.bump("passed_at.ndc_mismatch")
            return
        if (message.sn is not None and self.mdcd.pseudo_dirty_bit == 1
                and message.sn < self.process.sn.current):
            self.process.counters.bump("passed_at.stale_sn")
            self.validate_knowledge(p1act_sn=message.sn)
            return
        self.set_pseudo_dirty(0, reason="passed-at")
        self.validate_knowledge(p1act_sn=message.sn)
        self._notify_validation(type2=True)

    def on_incoming_app(self, message: Message) -> None:
        """Apply P2's message (no checkpoint on receipt)."""
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


class ModifiedShadowEngine(MdcdEngineBase):
    """``P1_sdw`` under the modified protocol (Appendix A, Fig. 9).

    Identical to the original shadow except that validation no longer
    establishes a Type-2 checkpoint and "passed AT" handling is
    ``Ndc``-gated.
    """

    variant = "mdcd-modified"

    def __init__(self, process) -> None:
        super().__init__(process, at=None, ndc_gating=True)

    def _suppress(self, action: Action, kind: MessageKind) -> None:
        """Log the would-be message instead of transmitting it."""
        produce = (self.process.component.produce_internal
                   if kind is MessageKind.INTERNAL
                   else self.process.component.produce_external)
        payload = produce(action.stimulus)
        sn = self.process.sn.allocate()
        receiver = ProcessId(Role.PEER_2.value) if kind is MessageKind.INTERNAL \
            else ProcessId("DEVICE")
        suppressed = Message(kind=kind, sender=self.process.process_id,
                             receiver=receiver, payload=payload, sn=sn,
                             dirty_bit=self.mdcd.dirty_bit,
                             corrupt=payload.corrupt,
                             msg_id=self.process.msg_ids.allocate())
        self.process.msg_log.append(sn, suppressed)
        self.process.counters.bump("suppressed")

    def takeover_engine(self) -> TakeoverEngine:
        """What this shadow runs once promoted."""
        return TakeoverEngine(self.process,
                              peer=ProcessId(Role.PEER_2.value))

    def on_send_internal(self, action: Action) -> None:
        """Suppress and log (guarded operation)."""
        self._suppress(action, MessageKind.INTERNAL)

    def on_send_external(self, action: Action) -> None:
        """Suppress and log (guarded operation)."""
        self._suppress(action, MessageKind.EXTERNAL)

    def on_passed_at(self, message: Message) -> None:
        """Fig. 9: iff the Ndc matches - update VR, reclaim the log,
        clean the dirty bit; no Type-2 establishment."""
        if not self.ndc_matches(message):
            self.process.counters.bump("passed_at.ndc_mismatch")
            return
        if message.sn is not None:
            self.mdcd.vr = message.sn
            self.process.msg_log.reclaim_up_to(message.sn)
        was_dirty = self.mdcd.dirty_bit == 1
        self.set_dirty(0, reason="passed-at")
        self.validate_knowledge(p1act_sn=message.sn)
        self._notify_validation(type2=was_dirty)

    def on_incoming_app(self, message: Message) -> None:
        """Type-1 checkpoint before the first contaminating receipt,
        then apply."""
        if message.dirty_bit == 1 and self.mdcd.dirty_bit == 0:
            self.process.take_volatile_checkpoint(
                CheckpointKind.TYPE_1, meta={"trigger": message.describe()})
            self.set_dirty(1, reason="dirty-receive")
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


class ModifiedPeerEngine(MdcdEngineBase):
    """``P2`` under the modified protocol (Appendix A, Fig. 10)."""

    variant = "mdcd-modified"

    def __init__(self, process, at: AcceptanceTest) -> None:
        super().__init__(process, at=at, ndc_gating=True)
        self.component1_recipients: List[ProcessId] = [
            ProcessId(Role.ACTIVE_1.value), ProcessId(Role.SHADOW_1.value)]

    def on_send_external(self, action: Action) -> None:
        """Fig. 10: AT-test while dirty; on success clean, advance the
        valid bound and broadcast with the local Ndc; no Type-2."""
        payload = self.process.component.produce_external(action.stimulus)
        if self.mdcd.dirty_bit == 1:
            if not self.run_acceptance_test(payload):
                self.process.request_software_recovery(
                    Message(kind=MessageKind.EXTERNAL,
                            sender=self.process.process_id,
                            receiver=ProcessId("DEVICE"), payload=payload,
                            corrupt=payload.corrupt,
                            msg_id=self.process.msg_ids.allocate()))
                return
            self.set_dirty(0, reason="own-at")
            self._advance_valid_bound(self.mdcd.msg_sn_p1act)
            self.validate_knowledge(p1act_sn=self.mdcd.msg_sn_p1act)
            self.process.send_external(payload, validated=True)
            self.process.send_passed_at(
                list(self.component1_recipients),
                msg_sn=self.mdcd.msg_sn_p1act, ndc=self.process.current_ndc())
            self._notify_validation(type2=True)
        else:
            self.process.send_external(payload, validated=True)

    def on_send_internal(self, action: Action) -> None:
        """Multicast to component 1 with dirty bit and Ndc piggybacked."""
        payload = self.process.component.produce_internal(action.stimulus)
        dirty = self.mdcd.dirty_bit
        self.process.send_internal(payload, list(self.component1_recipients),
                                   sn=None, dirty_bit=dirty,
                                   validated=(dirty == 0),
                                   ndc=self.process.current_ndc())

    def on_passed_at(self, message: Message) -> None:
        """Fig. 10: iff the Ndc matches - record the bound, advance the
        valid-bound register, clean the dirty bit."""
        if not self.ndc_matches(message):
            self.process.counters.bump("passed_at.ndc_mismatch")
            return
        if message.sn is not None:
            self.mdcd.msg_sn_p1act = message.sn
        self._advance_valid_bound(message.sn)
        was_dirty = self.mdcd.dirty_bit == 1
        self.set_dirty(0, reason="passed-at")
        self.validate_knowledge(p1act_sn=message.sn)
        self._notify_validation(type2=was_dirty)

    def on_incoming_app(self, message: Message) -> None:
        # A P1_act message whose sequence number is already covered by a
        # validation (its AT ran after it was sent, and the notification
        # overtook it through the blocking buffer) is *valid at
        # receipt*: applying it does not contaminate the state.  The
        # paper's synchronous pseudocode never faces this interleaving;
        # the valid-bound register makes the "not-yet-validated message"
        # test of Section 2.1 exact.
        """Fig. 10 receive with the valid-bound refinement (see below)."""
        validated_at_receipt = (message.sn is not None
                                and self.mdcd.vr is not None
                                and message.sn <= self.mdcd.vr)
        contaminating = message.dirty_bit == 1 and not validated_at_receipt
        if contaminating and self.mdcd.dirty_bit == 0:
            self.process.take_volatile_checkpoint(
                CheckpointKind.TYPE_1, meta={"trigger": message.describe()})
            self.set_dirty(1, reason="dirty-receive")
        if message.sn is not None:
            self.mdcd.msg_sn_p1act = message.sn
        self.process.apply_app_message(
            message,
            validated=(message.dirty_bit in (0, None)) or validated_at_receipt)

    def _advance_valid_bound(self, sn) -> None:
        """Track the highest validated ``P1_act`` sequence number (P2's
        analogue of the shadow's valid message register)."""
        if sn is not None and (self.mdcd.vr is None or sn > self.mdcd.vr):
            self.mdcd.vr = sn
