"""Heartbeat-driven shadow takeover for the live backend.

The sim's :class:`~repro.topology.recovery.TopologyRecoveryManager`
runs the whole takeover in one place because it holds references to
every process.  On the live backend the same algorithm executes
*distributedly*, which is how the paper means it: each process makes its
**local** decision (dirty -> roll back to the volatile checkpoint, clean
-> roll forward) with no coordination — the MDCD theorems are exactly
the license to do that.

* The **shadow**'s failure detector (heartbeat timeout on the active)
  triggers :func:`shadow_takeover`: bump the incarnation, local
  decision, re-send the suppressed log beyond ``VR``, switch to the
  shadow engine's post-takeover engine, re-send unacknowledged
  messages, end guarded operation, and broadcast a ``takeover`` control
  frame.
* Each **peer** receiving the broadcast runs :func:`peer_adopt_takeover`:
  adopt the new incarnation, local decision, stop addressing the
  deposed active, end guarded operation, re-send unacknowledged
  messages through surviving routes.

Both halves run the manager's own per-process steps
(:func:`~repro.mdcd.recovery.local_decision`,
:func:`~repro.mdcd.recovery.promote_shadow`), so the decisions they
trace are the ones the sim oracle predicts.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..host import FtProcess
from ..mdcd.recovery import drop_recipient, local_decision, promote_shadow
from ..types import ProcessId, RecoveryAction


def _decide(process: FtProcess) -> RecoveryAction:
    decisions: Dict[ProcessId, RecoveryAction] = {}
    local_decision(process, decisions, {})
    return decisions[process.process_id]


def shadow_takeover(shadow: FtProcess, active_id: ProcessId, incarnation,
                    reason: str = "heartbeat-timeout") -> Dict[str, object]:
    """Promote the shadow after its failure detector condemns the
    active.  Returns a summary for the harness/decision artifact."""
    trace = shadow.trace
    trace.record(shadow.sim.now, "recovery.software.start",
                 shadow.process_id, failed=reason)
    incarnation.bump()
    decision = _decide(shadow)
    log_resent, suppressed = promote_shadow(shadow)
    resent = shadow.resend_unacknowledged((active_id,))
    trace.record(shadow.sim.now, "recovery.software.done", shadow.process_id,
                 decisions={str(shadow.process_id): decision.value},
                 resent=log_resent + resent, suppressed=suppressed)
    return {
        "decision": decision.value,
        "incarnation": incarnation.value,
        "log_resent": log_resent,
        "log_suppressed": suppressed,
        "unacked_resent": resent,
        "reason": reason,
    }


def peer_adopt_takeover(peer: FtProcess, active_id: ProcessId,
                        incarnation, new_incarnation: int) -> Optional[Dict[str, object]]:
    """Apply a takeover broadcast at a surviving peer.  Idempotent: a
    duplicate or stale broadcast is ignored."""
    if incarnation.value >= new_incarnation:
        return None
    incarnation.value = new_incarnation
    decision = _decide(peer)
    drop_recipient(peer.software, active_id)
    peer.mdcd.guarded = False
    resent = peer.resend_unacknowledged((active_id,))
    peer.trace.record(peer.sim.now, "recovery.takeover.adopted",
                      peer.process_id, incarnation=new_incarnation)
    return {
        "decision": decision.value,
        "incarnation": new_incarnation,
        "unacked_resent": resent,
    }
