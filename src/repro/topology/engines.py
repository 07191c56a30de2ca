"""MDCD engines for N-component/K-shadow topologies, with per-source
contamination provenance.

With **N guarded components** there are N independent sequence-number
spaces, so contamination provenance is a **map**:
``{active role id -> highest influencing sequence number}``.  Every
dirty message piggybacks its sender's map; a validation broadcasts a
*bound map* of what it certifies per source; a process is cleaned —
and a journal record validated — **iff every entry of the relevant
taint map is covered by the bound map**.

These are the coordinated schemes' engines on every membership, the
paper's three processes included: with one guarded component the map
has one entry and the rules reduce to the modified MDCD algorithms of
Appendix A (Figs. 8-10) — pseudo checkpoints, no Type-2, ``Ndc``-gated
"passed AT" handling.

Interaction shape.  Guarded components are *ingress* points: each
active produces traffic into the unguarded peer mesh (stimulus-routed,
mirrored by its shadows' suppressed logs), and peers send along their
*routes* — recipient groups picked by stimulus.  On ``NxK+U`` a peer's
routes are its fellow peers, one each (the edges along which
multi-source contamination mixes), so no application traffic flows
*into* a guarded component and an active/shadow group's states stay
aligned action-for-action.  On the paper shape ``P2``'s one route is
component 1's pair ``{P1_act, P1_sdw}``, the multicast Fig. 1 draws.
Validations flow everywhere: an active's AT certifies its own frontier
(``{self: msg_SN}``), a peer's AT certifies the merged frontier of
everything it absorbed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..app.acceptance import AcceptanceTest
from ..app.workload import Action
from ..messages.message import Message
from ..mdcd.base import MdcdEngineBase
from ..mdcd.recovery import TakeoverEngine, route
from ..types import CheckpointKind, MessageKind, ProcessId


def merge_bounds(a: Optional[Dict[str, int]],
                 b: Optional[Dict[str, int]]) -> Dict[str, int]:
    """Per-source maximum of two bound maps."""
    merged: Dict[str, int] = dict(a or {})
    for src, sn in (b or {}).items():
        if sn is not None and sn > merged.get(src, -1):
            merged[src] = sn
    return merged


def covered_by(taint: Dict[str, int], bounds: Dict[str, int]) -> bool:
    """Whether every entry of ``taint`` is certified by ``bounds``."""
    return all(src in bounds and sn <= bounds[src]
               for src, sn in taint.items())


class TopologyActiveEngine(MdcdEngineBase):
    """A guarded component's low-confidence active.

    The paper's Fig. 8 algorithm with stimulus-routed peer addressing
    and a per-source bound map on its validation broadcasts.  The
    stale-``msg_SN`` conservatism guard (a deviation the schedule audit
    forced — see DESIGN.md) is kept: a peer's bound map certifies this
    active's messages only up to its recorded frontier, and newer
    allocations mean the current state depends on an unvalidated
    produce (the contaminating send may still be in flight), so
    resetting the pseudo bit would let the adapted TB write a
    ``current-state`` stable checkpoint of an unvalidated state.
    """

    variant = "mdcd-topology"

    def __init__(self, process, at: AcceptanceTest,
                 shadows: List[ProcessId], peers: List[ProcessId]) -> None:
        super().__init__(process, at=at, ndc_gating=True)
        self.member_id = str(process.process_id)
        self.shadows = list(shadows)
        self.peers = list(peers)
        process.mdcd.dirty_bit = 1        # constant during guarded operation
        process.mdcd.pseudo_dirty_bit = 0
        self.trace("confidence.dirty", bit="dirty", reason="guarded-active")

    def on_send_internal(self, action: Action) -> None:
        """Pseudo-checkpoint before the first internal send of a
        suspicion window, then send dirty to the routed peer."""
        if self.mdcd.pseudo_dirty_bit == 0:
            # Before the production itself (a faulty version contaminates
            # the state while computing the message, and the pseudo
            # checkpoint anchors the last *validated* state) and before
            # the sequence number is allocated, so a restored process has
            # not yet allocated a number its state does not reflect.
            self.process.take_volatile_checkpoint(
                CheckpointKind.PSEUDO, meta={"trigger": "first-internal-send"})
        payload = self.process.component.produce_internal(action.stimulus)
        if self.mdcd.pseudo_dirty_bit == 0:
            self.set_pseudo_dirty(1, reason="internal-send")
        sn = self.process.sn.allocate()
        self.process.send_internal(payload, [route(action.stimulus, self.peers)],
                                   sn=sn, dirty_bit=1, validated=False,
                                   ndc=self.process.current_ndc())

    def on_send_external(self, action: Action) -> None:
        """AT-test; on success broadcast the validation — with this
        active's bound map — to its shadows and every peer."""
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
        bound = self.process.sn.current
        self.validate_knowledge(bound, source=self.process.process_id)
        self.process.send_external(payload, validated=True)
        self.process.send_passed_at(self.shadows + self.peers, msg_sn=bound,
                                    ndc=self.process.current_ndc(),
                                    bound_map={self.member_id: bound})
        self._notify_validation(type2=True)

    def on_passed_at(self, message: Message) -> None:
        """Reset the pseudo dirty bit iff the Ndc matches *and* the
        notification's bound map covers every sequence number allocated
        so far (the stale-``msg_SN`` guard, per-source form)."""
        if not self.ndc_matches(message):
            self.process.counters.bump("passed_at.ndc_mismatch")
            return
        bounds = message.taint_map or {}
        my_bound = bounds.get(self.member_id)
        if my_bound is None and str(message.sender) == self.member_id:
            my_bound = message.sn
        if my_bound is None:
            # Certifies none of this active's messages.
            self.process.counters.bump("passed_at.uncovered")
            return
        if self.mdcd.pseudo_dirty_bit == 1 and my_bound < self.process.sn.current:
            self.process.counters.bump("passed_at.stale_sn")
            self.validate_knowledge(my_bound, source=self.process.process_id)
            return
        self.set_pseudo_dirty(0, reason="passed-at")
        self.validate_knowledge(my_bound, source=self.process.process_id)
        self._notify_validation(type2=True)

    def on_incoming_app(self, message: Message) -> None:
        """Apply a peer's message (the active never checkpoints on
        receipt); only the paper shape routes traffic to an active."""
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


class TopologyShadowEngine(MdcdEngineBase):
    """A guarded component's high-confidence shadow (by rank).

    The paper's Fig. 9 algorithm: suppresses with the active's routing
    so the logs stay aligned, and advances its valid message register
    from any validation whose bound map covers its own active.
    """

    variant = "mdcd-topology"

    def __init__(self, process, active_id: ProcessId,
                 peers: List[ProcessId]) -> None:
        super().__init__(process, at=None, ndc_gating=True)
        self.active_id = str(active_id)
        self.peers = list(peers)

    def _suppress(self, action: Action, kind: MessageKind) -> None:
        """Log the would-be message with its routed recipients."""
        produce = (self.process.component.produce_internal
                   if kind is MessageKind.INTERNAL
                   else self.process.component.produce_external)
        payload = produce(action.stimulus)
        sn = self.process.sn.allocate()
        if kind is MessageKind.INTERNAL:
            recipients = [route(action.stimulus, self.peers)]
        else:
            recipients = [ProcessId("DEVICE")]
        suppressed = Message(kind=kind, sender=self.process.process_id,
                             receiver=recipients[0], payload=payload, sn=sn,
                             dirty_bit=self.mdcd.dirty_bit,
                             corrupt=payload.corrupt,
                             msg_id=self.process.msg_ids.allocate())
        self.process.msg_log.append(sn, suppressed, recipients=recipients)
        self.process.counters.bump("suppressed")

    def takeover_engine(self) -> TakeoverEngine:
        """What this shadow runs once elected and promoted."""
        return TakeoverEngine(self.process, self.peers)

    def on_send_internal(self, action: Action) -> None:
        """Suppress and log (guarded operation)."""
        self._suppress(action, MessageKind.INTERNAL)

    def on_send_external(self, action: Action) -> None:
        """Suppress and log (guarded operation)."""
        self._suppress(action, MessageKind.EXTERNAL)

    def on_passed_at(self, message: Message) -> None:
        """Ndc-gated: advance ``VR`` monotonically from the bound map's
        entry for this shadow's active, reclaim the log up to it, clean
        the dirty bit and validate the journals; no Type-2."""
        if not self.ndc_matches(message):
            self.process.counters.bump("passed_at.ndc_mismatch")
            return
        bounds = message.taint_map or {}
        bound = bounds.get(self.active_id)
        if bound is None and str(message.sender) == self.active_id:
            bound = message.sn
        if bound is not None:
            if self.mdcd.vr is None or bound > self.mdcd.vr:
                self.mdcd.vr = bound
            self.process.msg_log.reclaim_up_to(bound)
        was_dirty = self.mdcd.dirty_bit == 1
        self.set_dirty(0, reason="passed-at")
        self.validate_knowledge(bound, source=self.active_id)
        self._notify_validation(type2=was_dirty)

    def on_incoming_app(self, message: Message) -> None:
        """Type-1 checkpoint before the first contaminating receipt,
        then apply; only the paper shape routes traffic to a shadow."""
        if message.dirty_bit == 1 and self.mdcd.dirty_bit == 0:
            self.process.take_volatile_checkpoint(
                CheckpointKind.TYPE_1, meta={"trigger": message.describe()})
            self.set_dirty(1, reason="dirty-receive")
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


class TopologyPeerEngine(MdcdEngineBase):
    """An unguarded peer in the mesh, tracking per-source provenance.

    Receives stimulus-routed traffic from every active (implicit
    provenance ``{sender: sn}``) and from fellow peers (piggybacked
    taint maps), mixes the two on its own dirty sends along ``routes``,
    and certifies the merged frontier when its own acceptance test
    passes (the paper's Fig. 10, per source).
    """

    variant = "mdcd-topology"

    def __init__(self, process, at: AcceptanceTest,
                 active_ids: List[ProcessId],
                 routes: List[List[ProcessId]],
                 notification_recipients: List[ProcessId]) -> None:
        super().__init__(process, at=at, ndc_gating=True)
        self.active_ids = {str(pid) for pid in active_ids}
        #: Recipient groups of internal sends, picked by stimulus.
        self.routes = [list(group) for group in routes]
        self.notification_recipients = list(notification_recipients)

    # ------------------------------------------------------------------
    # provenance-map helpers
    # ------------------------------------------------------------------
    def _taint(self) -> Dict[str, int]:
        return self.mdcd.taint_map or {}

    def _vr_map(self) -> Dict[str, int]:
        return self.mdcd.vr_map or {}

    def message_taint(self, message: Message) -> Dict[str, int]:
        """A message's provenance: the sender's own (role, sn) for
        active senders, merged with any piggybacked map."""
        taint = dict(message.taint_map or {})
        sender = str(message.sender)
        if sender in self.active_ids and message.sn is not None:
            taint = merge_bounds(taint, {sender: message.sn})
        return taint

    def record_taint(self, rec) -> Dict[str, int]:
        """A journal record's provenance (same rule as messages)."""
        taint = dict(rec.taint_map or {})
        sender = str(rec.sender)
        if sender in self.active_ids and rec.sn is not None:
            taint = merge_bounds(taint, {sender: rec.sn})
        return taint

    def validated_at_receipt(self, message: Message) -> bool:
        """Whether an incoming message is already covered by the
        per-source valid-bound registers."""
        if message.dirty_bit in (0, None):
            return True
        taint = self.message_taint(message)
        if not taint:
            # Dirty with no traceable provenance: stay suspicious.
            return False
        return covered_by(taint, self._vr_map())

    def _note_source_sn(self, sender: str, sn: Optional[int]) -> None:
        if sn is None:
            return
        seen = dict(self.mdcd.msg_sn_map or {})
        if sn > seen.get(sender, -1):
            seen[sender] = sn
            self.mdcd.msg_sn_map = seen

    def apply_validation(self, bounds: Dict[str, int]) -> bool:
        """Apply a validation: advance the valid-bound registers,
        validate covered records, clean iff the whole taint map is
        covered.  Returns whether a dirty state was cleaned."""
        self.mdcd.vr_map = merge_bounds(self._vr_map(), bounds)
        for journal in (self.process.journal_sent, self.process.journal_recv):
            for rec in journal.records(validated=False):
                rec_taint = self.record_taint(rec)
                if rec.sent_dirty == 0 or (rec_taint
                                           and covered_by(rec_taint, bounds)):
                    rec.validated = True
        was_dirty = self.mdcd.dirty_bit == 1
        if was_dirty and covered_by(self._taint(), bounds):
            self.mdcd.taint_map = {}
            self.set_dirty(0, reason="passed-at")
            self._validate_everything()
            self.process.flush_deferred_acks()
            return True
        if was_dirty:
            self.process.counters.bump("passed_at.uncovered")
        self.process.flush_deferred_acks()
        return False

    def certify_own_state(self) -> Dict[str, int]:
        """My own AT passed: certify everything absorbed from every
        source.  Returns the bound map to broadcast."""
        bounds = merge_bounds(self.mdcd.msg_sn_map, self._taint())
        self.mdcd.taint_map = {}
        self.mdcd.vr_map = merge_bounds(self._vr_map(), bounds)
        self.set_dirty(0, reason="own-at")
        self._validate_everything()
        self.process.flush_deferred_acks()
        return bounds

    def _validate_everything(self) -> None:
        """A fully clean state reflects only valid messages."""
        for journal in (self.process.journal_sent, self.process.journal_recv):
            for rec in journal.records(validated=False):
                rec.validated = True

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def on_send_internal(self, action: Action) -> None:
        """Stimulus-routed send to one recipient group, taint
        piggybacked while dirty."""
        payload = self.process.component.produce_internal(action.stimulus)
        if not self.routes:
            self.process.counters.bump("sent.no_route")
            return
        dirty = self.mdcd.dirty_bit
        self.process.send_internal(
            payload, list(route(action.stimulus, self.routes)),
            sn=None, dirty_bit=dirty, validated=(dirty == 0),
            ndc=self.process.current_ndc(),
            taint_map=self._taint() if dirty else None)

    def on_send_external(self, action: Action) -> None:
        """AT-test while dirty; on success certify the whole frontier
        and broadcast its bound map."""
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
            bounds = self.certify_own_state()
            self.process.send_external(payload, validated=True)
            self.process.send_passed_at(
                list(self.notification_recipients), msg_sn=None,
                ndc=self.process.current_ndc(), bound_map=bounds)
            self._notify_validation(type2=True)
        else:
            self.process.send_external(payload, validated=True)

    def on_passed_at(self, message: Message) -> None:
        """Ndc-gated per-source validation."""
        if not self.ndc_matches(message):
            self.process.counters.bump("passed_at.ndc_mismatch")
            return
        bounds = dict(message.taint_map or {})
        sender = str(message.sender)
        if sender in self.active_ids and message.sn is not None:
            bounds = merge_bounds(bounds, {sender: message.sn})
        for src, sn in bounds.items():
            self._note_source_sn(src, sn)
        cleaned = self.apply_validation(bounds)
        self._notify_validation(type2=cleaned)

    def on_incoming_app(self, message: Message) -> None:
        """Provenance-aware receive: Type-1 anchor before the first
        uncovered suspicion, absorb the taint map."""
        valid_now = self.validated_at_receipt(message)
        if not valid_now:
            if self.mdcd.dirty_bit == 0:
                self.process.take_volatile_checkpoint(
                    CheckpointKind.TYPE_1, meta={"trigger": message.describe()})
                self.set_dirty(1, reason="dirty-receive")
            self.mdcd.taint_map = merge_bounds(self._taint(),
                                               self.message_taint(message))
        sender = str(message.sender)
        if sender in self.active_ids:
            self._note_source_sn(sender, message.sn)
        self.process.apply_app_message(message, validated=valid_now)
