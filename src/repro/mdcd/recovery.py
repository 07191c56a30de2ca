"""MDCD software error recovery: shadow takeover with local
rollback/roll-forward decisions (paper Section 2.1).

When an acceptance test fails, ``P1_sdw`` takes over ``P1_act``'s active
role.  Each surviving process checks its *local* dirty bit: dirty means
roll back to the most recent volatile checkpoint, clean means roll
forward from the current state — no message exchange is needed to make
the decision (the MDCD theorems guarantee that the local decisions yield
a globally consistent, recoverable state).  The promoted shadow then
re-sends the suppressed messages in its log beyond the valid message
register ``VR`` (the ones whose ``P1_act`` counterparts were never
validated) and keeps suppressing the rest, and guarded operation ends:
dirty bits stay 0 and the adapted TB protocol degenerates to the
original (Section 4.2, last paragraph).

This module holds the per-process steps; the one sim manager that
sequences them, on every membership and scheme, is
:class:`~repro.topology.recovery.TopologyRecoveryManager` (the live
backend runs them distributedly, :mod:`repro.live.failover`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..app.workload import Action
from ..errors import RecoveryError
from ..messages.message import Message
from ..types import MessageKind, ProcessId, RecoveryAction
from .base import MdcdEngineBase


def route(stimulus: int, targets: Sequence):
    """Deterministic stimulus-based routing (shared by an active and
    its shadows so their message streams stay aligned)."""
    return targets[stimulus % len(targets)]


class TakeoverEngine(MdcdEngineBase):
    """A high-confidence component's post-takeover behaviour (a promoted
    shadow, or a commissioned upgrade).

    Internal messages go to the stimulus-routed peer flagged clean (born
    valid), external messages go straight to the device world, and no
    acceptance tests run — so dirty bits never set again and the TB
    protocol behaves like its original version.
    """

    def __init__(self, process, peers: List[ProcessId]) -> None:
        # Ndc-gated under every scheme; a promoted shadow takes no
        # pseudo or Type-2 checkpoints either way.
        super().__init__(process, at=None, modified=True)
        self.peers = list(peers)
        process.mdcd.guarded = False
        process.mdcd.dirty_bit = 0

    def on_send_internal(self, action: Action) -> None:
        """Clean (born-valid) internal send to the routed peer."""
        payload = self.process.component.produce_internal(action.stimulus)
        sn = self.process.sn.allocate()
        self.process.send_internal(payload, [route(action.stimulus, self.peers)],
                                   sn=sn, dirty_bit=0, validated=True,
                                   ndc=self.process.current_ndc())

    def on_send_external(self, action: Action) -> None:
        """Direct external send - no acceptance test post-takeover."""
        payload = self.process.component.produce_external(action.stimulus)
        self.process.send_external(payload, validated=True)

    def on_passed_at(self, message: Message) -> None:
        """Validate knowledge (notifications are rare post-takeover);
        no guarded active's messages reach this process any more."""
        if self.ndc_matches(message):
            self.validate_knowledge()

    def on_incoming_app(self, message: Message) -> None:
        """Apply; peers only send clean-flagged messages now."""
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


def local_decision(proc, decisions: Dict, distances: Dict) -> None:
    """The paper's local rule: dirty -> roll back to the volatile
    checkpoint, clean -> roll forward.  Every recovery path (the sim
    manager, the live backend's distributed takeover) decides through
    this one function, which notes the :class:`RecoveryAction` in
    ``decisions`` and a rollback's distance in ``distances``, both
    keyed by process id."""
    if proc.node.crashed:
        # A crashed survivor has nothing to decide: its volatile state
        # is already lost, and its node's restart rolls every process
        # back to the stable recovery line — strictly more conservative
        # than either local decision.
        proc.counters.bump("recovery.decision_skipped_crashed")
        return
    if proc.mdcd.dirty_bit == 0:
        proc.roll_forward("software")
        decisions[proc.process_id] = RecoveryAction.ROLL_FORWARD
        return
    checkpoint = proc.volatile_checkpoint()
    if checkpoint is None:
        # Volatile storage was lost (e.g. an earlier crash) and never
        # re-established: fall back to the latest stable checkpoint if
        # one exists.  This is the degraded path a naive protocol
        # combination can force (paper Fig. 4(a)); the trace records it
        # so scenarios can assert on it.
        checkpoint = proc.node.stable.peek(proc.process_id)
        proc.counters.bump("recovery.degraded_fallback")
        proc.trace.record(proc.sim.now, "recovery.degraded_fallback",
                          proc.process_id)
    if checkpoint is None:
        raise RecoveryError(
            f"{proc.process_id} is dirty but has no checkpoint to roll back to")
    distances[proc.process_id] = proc.restore_from(checkpoint, "software")
    decisions[proc.process_id] = RecoveryAction.ROLLBACK


def promote_shadow(shadow) -> Tuple[int, int]:
    """Promote ``shadow`` after its local decision: transmit the
    suppressed, never-validated tail of its message log (beyond ``VR``)
    and switch it to the post-takeover engine its shadow engine names.
    Returns ``(resent, suppressed)`` log-entry counts."""
    vr = shadow.mdcd.vr
    to_resend = shadow.msg_log.entries_after(vr)
    suppressed = shadow.msg_log.reclaim_up_to(vr) if vr is not None else 0
    for entry in to_resend:
        message = entry.message
        # The suppressed copies were never transmitted; send them now
        # under the new incarnation.  The shadow's state is
        # non-contaminated after its local decision, so they are born
        # valid.
        if message.kind is MessageKind.EXTERNAL:
            shadow.send_external(message.payload, validated=True)
        else:
            shadow.send_internal(message.payload, entry.destinations(),
                                 sn=message.sn, dirty_bit=0, validated=True,
                                 ndc=shadow.current_ndc())
    shadow.msg_log.clear()
    shadow.software = shadow.software.takeover_engine()
    shadow.driver.resume()
    return len(to_resend), suppressed


def drop_recipient(engine, dead_id: ProcessId) -> None:
    """Stop ``engine`` addressing ``dead_id``, whichever recipient
    lists its family keeps (a peer's ``routes`` are recipient groups)."""
    for attr in ("shadows", "peers",
                 "notification_recipients"):
        pids = getattr(engine, attr, None)
        if pids is not None:
            setattr(engine, attr, [pid for pid in pids if pid != dead_id])
    routes = getattr(engine, "routes", None)
    if routes is not None:
        engine.routes = [[pid for pid in group if pid != dead_id]
                         for group in routes]
