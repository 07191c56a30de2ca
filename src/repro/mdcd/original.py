"""The original MDCD error-containment protocol (paper Section 2.1).

Volatile checkpoints are message-driven and confidence-driven:

* **Type-1** — taken immediately before a process state becomes
  potentially contaminated (a clean process about to apply a
  dirty-flagged message);
* **Type-2** — taken right after a potentially contaminated state is
  validated (an AT success, learned directly or via a "passed AT"
  notification).

``P1_act`` is exempt from checkpointing (the shadow takes over if it
fails) and its dirty bit is constant 1 during guarded operation.  There
is no ``Ndc`` gating — the original protocol predates the coordination
scheme.  Figure 1 of the paper is a trace of exactly these rules, and
``tests/mdcd`` replays it.
"""

from __future__ import annotations

from typing import List

from ..app.acceptance import AcceptanceTest
from ..app.workload import Action
from ..messages.message import Message
from ..types import CheckpointKind, MessageKind, ProcessId, Role
from .base import MdcdEngineBase
from .recovery import TakeoverEngine

P1_ACT = ProcessId(Role.ACTIVE_1.value)


class OriginalActiveEngine(MdcdEngineBase):
    """``P1_act`` under the original protocol.

    Sends internal messages flagged dirty (its state is invariably
    suspect), runs the AT on every external message, and broadcasts
    "passed AT" notifications on success.  Never checkpoints.
    """

    variant = "mdcd-original"

    def __init__(self, process, at: AcceptanceTest,
                 peer: ProcessId, shadow: ProcessId) -> None:
        super().__init__(process, at=at, ndc_gating=False)
        self.peer = peer
        self.shadow = shadow
        process.mdcd.dirty_bit = 1  # constant during guarded operation
        self.trace("confidence.dirty", bit="dirty", reason="guarded-active")

    def on_send_external(self, action: Action) -> None:
        """Fig. 1 semantics: AT-test the external message; on success
        broadcast the validation, on failure escalate to takeover."""
        payload = self.process.component.produce_external(action.stimulus)
        if not self.run_acceptance_test(payload):
            self.process.request_software_recovery(
                Message(kind=MessageKind.EXTERNAL, sender=self.process.process_id,
                        receiver=ProcessId("DEVICE"), payload=payload,
                        corrupt=payload.corrupt,
                        msg_id=self.process.msg_ids.allocate()))
            return
        self.process.sn.allocate()
        self.validate_knowledge(self.process.sn.current, source=P1_ACT)
        self.process.send_external(payload, validated=True)
        self.process.send_passed_at([self.shadow, self.peer],
                                    msg_sn=self.process.sn.current, ndc=None)
        self._notify_validation(type2=True)

    def on_send_internal(self, action: Action) -> None:
        """Send flagged dirty with a fresh sequence number (never
        checkpointing - the shadow is P1_act's recovery story)."""
        payload = self.process.component.produce_internal(action.stimulus)
        sn = self.process.sn.allocate()
        self.process.send_internal(payload, [self.peer], sn=sn,
                                   dirty_bit=1, validated=False)

    def on_passed_at(self, message: Message) -> None:
        # P2 passed an AT: P1_act's messages up to message.sn are valid.
        """P2 passed an AT: mark the covered knowledge validated."""
        self.validate_knowledge(message.sn, source=P1_ACT)
        # P1_act is invariably suspect, so every validation notification
        # "validates" it (the write-through variant saves here).
        self._notify_validation(type2=True)

    def on_incoming_app(self, message: Message) -> None:
        """Apply P2's message (the active never checkpoints on receipt)."""
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


class OriginalShadowEngine(MdcdEngineBase):
    """``P1_sdw`` under the original protocol.

    Suppresses and logs every outgoing message; takes a Type-1
    checkpoint before its clean state applies a dirty-flagged message
    and a Type-2 checkpoint when a "passed AT" notification validates
    its potentially contaminated state.
    """

    variant = "mdcd-original"

    def __init__(self, process) -> None:
        super().__init__(process, at=None, ndc_gating=False)

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
        return TakeoverEngine(self.process, [ProcessId(Role.PEER_2.value)])

    def on_send_internal(self, action: Action) -> None:
        """Suppress and log (guarded operation)."""
        self._suppress(action, MessageKind.INTERNAL)

    def on_send_external(self, action: Action) -> None:
        """Suppress and log (guarded operation)."""
        self._suppress(action, MessageKind.EXTERNAL)

    def on_passed_at(self, message: Message) -> None:
        """Validation: update VR, reclaim the log, clean the dirty bit,
        and establish the Type-2 checkpoint if previously contaminated."""
        if message.sn is not None:
            self.mdcd.vr = message.sn
            self.process.msg_log.reclaim_up_to(message.sn)
        was_dirty = self.mdcd.dirty_bit == 1
        self.set_dirty(0, reason="passed-at")
        self.validate_knowledge(message.sn, source=P1_ACT)
        if was_dirty:
            self.process.take_volatile_checkpoint(CheckpointKind.TYPE_2)
        self._notify_validation(type2=was_dirty)

    def on_incoming_app(self, message: Message) -> None:
        """Type-1 checkpoint immediately before the first contaminating
        receipt, then apply."""
        if message.dirty_bit == 1 and self.mdcd.dirty_bit == 0:
            self.process.take_volatile_checkpoint(
                CheckpointKind.TYPE_1, meta={"trigger": message.describe()})
            self.set_dirty(1, reason="dirty-receive")
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


class OriginalPeerEngine(MdcdEngineBase):
    """``P2`` under the original protocol.

    Runs the AT on external messages only while potentially
    contaminated; broadcasts "passed AT" notifications carrying its
    record of ``P1_act``'s last sequence number; takes Type-1/Type-2
    checkpoints around its contamination intervals.
    """

    variant = "mdcd-original"

    def __init__(self, process, at: AcceptanceTest) -> None:
        super().__init__(process, at=at, ndc_gating=False)
        #: Where P2's internal messages go (the active and shadow of
        #: component 1); mutated by recovery after a takeover.
        self.component1_recipients: List[ProcessId] = [
            P1_ACT, ProcessId(Role.SHADOW_1.value)]

    def on_send_external(self, action: Action) -> None:
        """AT-test only while potentially contaminated (Fig. 10); on
        success broadcast with P1_act's last sequence number and take
        the Type-2 checkpoint."""
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
            self.validate_knowledge(self.mdcd.msg_sn_p1act, source=P1_ACT)
            self.process.send_external(payload, validated=True)
            self.process.send_passed_at(
                list(self.component1_recipients),
                msg_sn=self.mdcd.msg_sn_p1act, ndc=None)
            self.process.take_volatile_checkpoint(CheckpointKind.TYPE_2)
            self._notify_validation(type2=True)
        else:
            self.process.send_external(payload, validated=True)

    def on_send_internal(self, action: Action) -> None:
        """Multicast to component 1 with the dirty bit piggybacked."""
        payload = self.process.component.produce_internal(action.stimulus)
        dirty = self.mdcd.dirty_bit
        self.process.send_internal(payload, list(self.component1_recipients),
                                   sn=None, dirty_bit=dirty,
                                   validated=(dirty == 0))

    def on_passed_at(self, message: Message) -> None:
        """Validation: record the bound, clean the dirty bit, Type-2 if
        previously contaminated."""
        if message.sn is not None:
            self.mdcd.msg_sn_p1act = message.sn
        was_dirty = self.mdcd.dirty_bit == 1
        self.set_dirty(0, reason="passed-at")
        self.validate_knowledge(message.sn, source=P1_ACT)
        if was_dirty:
            self.process.take_volatile_checkpoint(CheckpointKind.TYPE_2)
        self._notify_validation(type2=was_dirty)

    def on_incoming_app(self, message: Message) -> None:
        # The paper's Fig. 10 treats every application message as
        # contaminating because P2's only application correspondent is
        # P1_act, whose piggybacked dirty bit is constant 1.  Testing
        # the piggybacked bit is equivalent during guarded operation and
        # remains correct after a shadow takeover (the promoted shadow
        # sends clean-flagged messages).
        """Type-1 checkpoint before the first contaminating receipt,
        track P1_act's sequence number, apply."""
        if message.dirty_bit == 1 and self.mdcd.dirty_bit == 0:
            self.process.take_volatile_checkpoint(
                CheckpointKind.TYPE_1, meta={"trigger": message.describe()})
            self.set_dirty(1, reason="dirty-receive")
        if message.sn is not None:
            self.mdcd.msg_sn_p1act = message.sn
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))
