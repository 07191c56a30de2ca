"""Executable versions of the paper's global-state properties.

Section 2.1 defines (validity-concerned) **consistency** and
**recoverability** over a global state ``S``:

* *Consistency* — a message reflected as received must be reflected as
  sent, and both ends must agree on its validity.
* *Recoverability* — a message reflected as sent must be reflected as
  received with agreeing validity views, **or** the error recovery
  algorithm must be able to restore it.

The checkers run over a line of :class:`~repro.analysis.global_state.ProcessView`
objects.  "Reflected" is literal: a message is in a view iff it is in
the snapshot's sent/received journal.  Restorability recognises the two
mechanisms the protocols actually have:

* the TB protocols re-send every message in the sender's snapshotted
  unacknowledged set;
* a sender whose snapshot *precedes* the send re-executes and
  regenerates the message (so such messages are simply absent from the
  global state and need no restoring).

A third, ground-truth check audits the protocol's conservatism: a
snapshot whose dirty bit is 0 must not be actually contaminated
(guaranteed when the acceptance test has perfect coverage).
"""

from __future__ import annotations

import dataclasses
from typing import Container, Dict, Iterable, List, Optional, Set

from ..errors import InvariantViolation
from ..messages.message import DEVICE
from ..topology.model import Topology
from ..types import ProcessId
from .global_state import ProcessView


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation found in a line."""

    kind: str
    detail: str
    message_key: Optional[int] = None
    process: Optional[ProcessId] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.detail}"


#: Violation kinds emitted by the checkers.
ORPHAN_MESSAGE = "orphan-message"
VALIDITY_MISMATCH = "validity-mismatch"
UNRESTORABLE_MESSAGE = "unrestorable-message"
UNDETECTED_CONTAMINATION = "undetected-contamination"
PSEUDO_CONTAMINATION = "pseudo-undetected-contamination"

#: Safety margin when comparing a record's timestamp against the other
#: end's pruning horizon.  The two ends stamp the *same* message at
#: different instants (receive time lags send time by the delivery delay
#: plus, for a buffered delivery, a whole blocking period), and prune at
#: different instants, so the horizon comparison needs slack.  Must
#: exceed ``t_max`` + the longest blocking period and stay far below the
#: journal retention window; 5 s is comfortable for every configuration
#: in this repository.
PRUNE_SLACK = 5.0


def check_consistency(line: Dict[ProcessId, ProcessView],
                      exempt_receivers: Iterable[ProcessId] = (),
                      include_validity_views: bool = True) -> List[Violation]:
    """Consistency: no received-but-never-sent (orphan) messages, and
    agreeing validity views on messages present at both ends.

    ``exempt_receivers`` — see :func:`check_recoverability`: views held
    by the always-suspect ``P1_act`` about its *own inbound* traffic are
    not recovery-relevant (its state is never a recovery basis), so
    callers modelling the paper's system pass ``{P1_act}``.

    ``include_validity_views=False`` skips the view-agreement check —
    appropriate for *live* states, where a validation notification still
    in flight makes the two ends' views legitimately, transiently
    different (the paper's property is about recovery lines).
    """
    exempt = set(exempt_receivers)
    # Hot in the online auditor: one pass over the journals' own dicts.
    sent = {pid: view.snapshot.journal_sent for pid, view in line.items()}
    violations: List[Violation] = []
    for pid, view in line.items():
        if pid in exempt:
            continue
        for rec in view.snapshot.journal_recv._records.values():
            journal = sent.get(rec.sender)
            if journal is None:
                continue  # sender outside the line (e.g. deposed)
            sent_rec = journal._records.get(rec.key)
            if sent_rec is None:
                if rec.dsn is not None:
                    # Replay-protected (coordinated schemes): the
                    # sender's snapshot precedes the send, and its
                    # piecewise-deterministic re-execution regenerates
                    # the identical (sender, receiver, dsn) message,
                    # which this receiver deduplicates — the "sent"
                    # side re-materializes during recovery.
                    continue
                sender_horizon = journal.pruned_before
                if (rec.validated and sender_horizon > 0.0
                        and rec.time - PRUNE_SLACK < sender_horizon):
                    # The sender garbage-collected this old validated
                    # record; both ends agreed on validity when it was
                    # pruned (only validated records are pruned).
                    continue
                violations.append(Violation(
                    kind=ORPHAN_MESSAGE, message_key=rec.key, process=pid,
                    detail=(f"{pid} reflects message {rec.key} from {rec.sender} "
                            f"as received, but {rec.sender}'s state does not "
                            f"reflect sending it")))
                continue
            if include_validity_views and sent_rec.validated != rec.validated:
                violations.append(Violation(
                    kind=VALIDITY_MISMATCH, message_key=rec.key, process=pid,
                    detail=(f"message {rec.key} {rec.sender}->{pid}: sender view "
                            f"validated={sent_rec.validated}, receiver view "
                            f"validated={rec.validated}")))
    return violations


def check_recoverability(line: Dict[ProcessId, ProcessView],
                         exempt_receivers: Iterable[ProcessId] = (),
                         in_flight_keys: Container[int] = frozenset(),
                         guarded_map: Optional[Dict[ProcessId,
                                                    Optional[int]]] = None) -> List[Violation]:
    """Recoverability: every sent-but-not-received message must be
    restorable by the recovery machinery.

    Restoration mechanisms recognised:

    * the sender's snapshotted unacknowledged set (TB re-send);
    * for a guarded active's messages (``guarded_map``: each guarded
      active's process id mapped to its component's valid message
      register ``VR``): the shadow's suppressed-message log and
      lock-step re-execution — the shadow re-sends (or regenerates)
      every message of its component with sequence number beyond the
      valid message register, so a lost active's message with
      ``sn > VR`` is restorable by takeover (this is exactly the "or
      the error recovery algorithm must be able to restore m" arm of
      the paper's definition);
    * senders whose snapshot *precedes* the send re-execute and
      regenerate the message (such messages are simply absent from the
      global state — nothing to check).

    ``exempt_receivers`` lists processes whose *incoming* message loss
    is tolerated by construction — the always-suspect ``P1_act``: its
    state is never a recovery basis for software errors, and any
    divergence it accumulates is covered by the shadow (see DESIGN.md,
    "known corner cases").  Callers that want the strict property pass
    nothing.

    ``in_flight_keys`` is any container of the dedup keys on the wire
    (live-state checks only); it is asked only about a sent-but-not-
    received record that reaches that rule, so a lazy one
    (:func:`check_live_system`'s) gathers nothing for a line that never
    gets that far.
    """
    exempt = set(exempt_receivers)
    wire = in_flight_keys
    guarded: Dict[ProcessId, Optional[int]] = guarded_map or {}
    received = {pid: view.snapshot.journal_recv for pid, view in line.items()}
    violations: List[Violation] = []
    for pid, view in line.items():
        unacked_keys: Optional[Set[int]] = None
        for rec in view.snapshot.journal_sent._records.values():
            if rec.receiver == DEVICE:
                continue  # external messages leave the system
            journal = received.get(rec.receiver)
            if journal is None:
                continue  # receiver outside the line
            if rec.key in journal._records:
                continue  # reflected on both ends; consistency covers views
            receiver_horizon = journal.pruned_before
            if receiver_horizon > 0.0 and rec.time - PRUNE_SLACK < receiver_horizon:
                continue  # receiver may have garbage-collected the record
            if unacked_keys is None:  # most lines never get this far
                unacked_keys = {m.dedup_key for m in view.snapshot.unacked}
            if rec.key in unacked_keys:
                continue  # restorable: saved with the checkpoint, re-sent
            if rec.key in wire:
                continue  # literally in transit (live-state checks only)
            if rec.receiver in exempt:
                continue
            if pid in guarded:
                vr = guarded[pid]
                if rec.sn is None or vr is None or rec.sn > vr:
                    continue  # restorable by a shadow's log / re-execution
            violations.append(Violation(
                kind=UNRESTORABLE_MESSAGE, message_key=rec.key, process=pid,
                detail=(f"message {rec.key} {pid}->{rec.receiver} is reflected "
                        f"as sent (and acknowledged) but not as received, and "
                        f"is not in the sender's saved unacknowledged set")))
    return violations


def check_ground_truth(line: Dict[ProcessId, ProcessView]) -> List[Violation]:
    """Conservatism audit: a snapshot believed clean (dirty bit 0) must
    not be actually contaminated.  Holds whenever acceptance-test
    coverage is 1.0; coverage ablations expect violations here."""
    violations: List[Violation] = []
    for pid, view in line.items():
        if view.dirty_bit == 0 and view.truly_corrupt:
            violations.append(Violation(
                kind=UNDETECTED_CONTAMINATION, process=pid,
                detail=(f"{pid}'s snapshot claims a clean state (dirty bit 0) "
                        f"but the application state is contaminated")))
    return violations


def check_pseudo_conservatism(line: Dict[ProcessId, ProcessView],
                              guarded_active: ProcessId) -> List[Violation]:
    """Conservatism of the *pseudo* dirty bit (modified MDCD only).

    Paper footnote 2: for ``P1_act`` the pseudo dirty bit substitutes
    for the dirty bit in the adapted TB protocol's ``write_disk``
    decision.  A ``current-state`` stable checkpoint is therefore the
    protocol claiming the captured state was validated — so, with
    perfect acceptance-test coverage, it must not be contaminated.  (The
    plain dirty-bit conservatism check of :func:`check_ground_truth`
    never fires for ``P1_act``, whose dirty bit is constant 1 during
    guarded operation.)

    Only meaningful for schemes running the modified protocol: the
    original MDCD has no pseudo bit, and its stale 0 value would make
    this check misfire — callers gate on ``scheme.uses_modified_mdcd``.
    """
    view = line.get(guarded_active)
    if view is None or view.content != "current-state":
        return []
    mdcd = view.snapshot.mdcd
    if not mdcd.guarded or view.meta.get("genesis"):
        return []
    if mdcd.pseudo_dirty_bit == 0 and view.truly_corrupt:
        return [Violation(
            kind=PSEUDO_CONTAMINATION, process=guarded_active,
            detail=(f"{guarded_active}'s current-state stable checkpoint "
                    f"claims a validated state (pseudo dirty bit 0) but the "
                    f"application state is contaminated"))]
    return []


def check_line(line: Dict[ProcessId, ProcessView],
               exempt_receivers: Iterable[ProcessId] = (),
               guarded_map: Optional[Dict[ProcessId, Optional[int]]] = None,
               include_ground_truth: bool = True) -> List[Violation]:
    """Run all checks over a line."""
    violations = check_consistency(line, exempt_receivers=exempt_receivers)
    violations += check_recoverability(line, exempt_receivers=exempt_receivers,
                                       guarded_map=guarded_map)
    if include_ground_truth:
        violations += check_ground_truth(line)
    return violations


def _exempt_and_guarded(line: Dict[ProcessId, ProcessView], topology):
    """What a line owes a membership: the exempt receivers (the
    always-suspect low-confidence actives) and the per-active
    valid-message-register bounds, from the line itself.

    Each guarded active maps to the *minimum* of its shadows' VRs (a
    message beyond a shadow's VR sits in that shadow's suppressed log or
    is regenerated by its re-execution, so the lowest register is the
    bound every potential successor can restore past); any shadow with
    no validation yet (``VR = None``) — or no shadow in the line at
    all — makes everything restorable.  The membership resolves once
    per topology (role ids are the process ids); a line reads only its
    shadows' registers."""
    guarded: Dict[ProcessId, Optional[int]] = {}
    for active, shadows in topology.guard_role_ids():
        vrs = [line[shadow].snapshot.mdcd.vr for shadow in shadows
               if shadow in line]
        guarded[active] = None if not vrs or None in vrs else min(vrs)
    return topology.exempt_role_ids(), guarded


def check_system_line(line: Dict[ProcessId, ProcessView],
                      include_ground_truth: bool = True,
                      pseudo_conservatism: bool = False,
                      topology=None) -> List[Violation]:
    """:func:`check_line` specialised to a system's membership
    (``topology``; the paper's three processes when a bare line is
    checked): every always-suspect low-confidence active is an exempt
    receiver, and the shadow-log restorability arm runs per component
    against the valid message registers captured in the line itself.

    ``pseudo_conservatism`` additionally runs
    :func:`check_pseudo_conservatism` on each guarded active — pass it
    only for schemes running the modified MDCD (see that checker's
    docstring).
    """
    exempt, guarded = _exempt_and_guarded(line, topology or Topology.paper())
    violations = check_line(line, exempt_receivers=exempt,
                            guarded_map=guarded,
                            include_ground_truth=include_ground_truth)
    if pseudo_conservatism and include_ground_truth:
        for pid in guarded:
            violations += check_pseudo_conservatism(line, guarded_active=pid)
    return violations


class _InFlightKeys:
    """The dedup keys of every message on a system's wire or held in a
    process's blocking buffer, gathered at the first membership test
    (most live lines never ask)."""

    __slots__ = ("_system", "_keys")

    def __init__(self, system) -> None:
        self._system = system
        self._keys: Optional[Set[int]] = None

    def __contains__(self, key: object) -> bool:
        keys = self._keys
        if keys is None:
            keys = {m.dedup_key for m in self._system.network.in_flight()}
            for proc in self._system.process_list():
                keys.update(m.dedup_key for m in proc._buffer)
            self._keys = keys
        return key in keys


def check_live_system(system, include_ground_truth: bool = True) -> List[Violation]:
    """Audit a system's *live* states (not a checkpoint line).

    The live global state differs from a checkpoint line in exactly one
    way: a sent-but-not-received message may be legitimately on the wire
    or held in a blocking buffer / deferred-ack stash.  This helper
    reads the live views (by reference, nothing copied), exempts those
    in-flight messages, and runs the standard checks — so live
    consistency can be asserted at any instant of a healthy run.
    """
    from .global_state import live_line
    line = live_line(system)
    wire = _InFlightKeys(system)
    exempt, guarded = _exempt_and_guarded(line, system.topology)
    violations = check_consistency(line, exempt_receivers=exempt,
                                   include_validity_views=False)
    violations += check_recoverability(line, exempt_receivers=exempt,
                                       guarded_map=guarded,
                                       in_flight_keys=wire)
    if include_ground_truth:
        violations += check_ground_truth(line)
    return violations


def assert_line_ok(line: Dict[ProcessId, ProcessView],
                   exempt_receivers: Iterable[ProcessId] = (),
                   include_ground_truth: bool = True,
                   label: str = "") -> None:
    """Strict mode: raise :class:`~repro.errors.InvariantViolation` if
    any check fails."""
    violations = check_line(line, exempt_receivers=exempt_receivers,
                            include_ground_truth=include_ground_truth)
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        raise InvariantViolation(
            f"{len(violations)} violation(s) in line {label or '<unnamed>'}: {summary}",
            violations=violations)


def summarize_violations(violations: List[Violation]) -> Dict[str, int]:
    """Count violations by kind (for reports)."""
    counts: Dict[str, int] = {}
    for v in violations:
        counts[v.kind] = counts.get(v.kind, 0) + 1
    return counts
