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
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

from ..app.workload import Action
from ..errors import RecoveryError
from ..messages.message import Message
from ..types import MessageKind, ProcessId, RecoveryAction
from .base import MdcdEngineBase


class TakeoverEngine(MdcdEngineBase):
    """The promoted shadow's post-takeover behaviour.

    A single high-confidence component 1 remains: internal messages go
    to ``P2`` flagged clean (born valid), external messages go straight
    to the device world, and no acceptance tests run — so dirty bits
    never set again and the TB protocol behaves like its original
    version.
    """

    variant = "mdcd-takeover"

    def __init__(self, process, peer: ProcessId) -> None:
        super().__init__(process, at=None, ndc_gating=True)
        self.peer = peer
        process.mdcd.guarded = False
        process.mdcd.dirty_bit = 0

    def on_send_internal(self, action: Action) -> None:
        """Clean (born-valid) internal send to the surviving peer."""
        payload = self.process.component.produce_internal(action.stimulus)
        sn = self.process.sn.allocate()
        self.process.send_internal(payload, [self.peer], sn=sn, dirty_bit=0,
                                   validated=True,
                                   ndc=self.process.current_ndc())

    def on_send_external(self, action: Action) -> None:
        """Direct external send - no acceptance test post-takeover."""
        payload = self.process.component.produce_external(action.stimulus)
        self.process.send_external(payload, validated=True)

    def on_passed_at(self, message: Message) -> None:
        """Validate knowledge (notifications are rare post-takeover)."""
        if self.ndc_matches(message):
            self.validate_knowledge(p1act_sn=message.sn)

    def on_incoming_app(self, message: Message) -> None:
        """Apply; peers only send clean-flagged messages now."""
        self.process.apply_app_message(
            message, validated=(message.dirty_bit in (0, None)))


def local_decision(proc, decisions: Dict, distances: Dict) -> None:
    """The paper's local rule: dirty -> roll back to the volatile
    checkpoint, clean -> roll forward.  Every recovery path (both sim
    managers, the live backend's distributed takeover) decides through
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
    lists its family keeps."""
    for attr in ("component1_recipients", "shadows", "peers", "other_peers",
                 "notification_recipients"):
        pids = getattr(engine, attr, None)
        if isinstance(pids, list):
            setattr(engine, attr, [pid for pid in pids if pid != dead_id])


class SoftwareRecoveryManager:
    """Coordinates a shadow takeover across the paper's three
    interacting processes.

    Installed on every process as ``process.recovery_manager`` by the
    system builder; engines escalate failed ATs here.
    """

    def __init__(self, active, shadow, peer, incarnation, trace) -> None:
        self.active = active
        self.shadow = shadow
        self.peer = peer
        self.incarnation = incarnation
        self.trace = trace
        self.completed = False
        #: A takeover is waiting for the shadow's node to restart.
        self.deferred = False
        #: Per-process recovery decisions of the last takeover, for
        #: tests and reports: {process_id: RecoveryAction}.
        self.decisions = {}
        #: Rollback distances of the last takeover (work-seconds).
        self.distances = {}
        #: Number of log entries the promoted shadow re-sent / dropped.
        self.resent = 0
        self.suppressed = 0

    # ------------------------------------------------------------------
    def _deferred_recover(self, detected_by, failed_message: Message,
                          _node) -> None:
        self.recover(detected_by, failed_message)

    def install(self) -> None:
        """Attach this manager to every process."""
        for proc in (self.active, self.shadow, self.peer):
            proc.recovery_manager = self

    def recover(self, detected_by, failed_message: Message) -> None:
        """Run the takeover.  Idempotent: a second detection (e.g. a
        false alarm racing the first) is traced and ignored."""
        sim = detected_by.sim
        if self.completed:
            self.trace.record(sim.now, "recovery.software.duplicate",
                              detected_by.process_id)
            return
        if self.shadow.node.crashed:
            # Coincident software + hardware fault: the takeover target
            # is down.  Fail-stop the faulty active immediately (no
            # further contamination) but defer the takeover until the
            # shadow's node restarts — the hardware recovery that runs
            # on that restart rolls the survivors back first (its
            # listener registered earlier), then the deferred takeover
            # promotes the restored shadow.
            if not self.active.deposed:
                self.active.depose()
            drop_recipient(self.peer.software, self.active.process_id)
            if not self.deferred:
                self.deferred = True
                self.trace.record(sim.now, "recovery.software.deferred",
                                  detected_by.process_id,
                                  node=str(self.shadow.node.node_id))
                self.shadow.node.on_restart(
                    functools.partial(self._deferred_recover, detected_by,
                                      failed_message))
            return
        self.deferred = False
        self.completed = True
        self.trace.record(sim.now, "recovery.software.start",
                          detected_by.process_id,
                          failed=failed_message.describe())
        # Fence off every message of the failed incarnation: the failed
        # active's traffic, and any pre-rollback traffic of the others.
        self.incarnation.bump()
        if not self.active.deposed:
            self.active.depose()

        for proc in (self.shadow, self.peer):
            local_decision(proc, self.decisions, self.distances)

        resent, suppressed = promote_shadow(self.shadow)
        self.resent += resent
        self.suppressed += suppressed
        drop_recipient(self.peer.software, self.active.process_id)
        for proc in (self.shadow, self.peer):
            # A crashed survivor cannot transmit; its node's restart
            # runs the hardware recovery, which resends for it.
            if not proc.node.crashed:
                proc.resend_unacknowledged((self.active.process_id,))
        self.active.mdcd.guarded = False
        self.peer.mdcd.guarded = False
        self.trace.record(sim.now, "recovery.software.done", None,
                          decisions={str(k): v.value for k, v in self.decisions.items()},
                          resent=self.resent, suppressed=self.suppressed)
