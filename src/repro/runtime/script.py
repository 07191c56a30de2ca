"""Scripted cross-backend workloads.

A :class:`WorkloadScript` is an ordered list of operations applied at
quiesced barriers: every op runs only after the previous one's effects
have fully propagated (no in-flight messages, no pending protocol
events).  Under that discipline both backends execute the *same*
causal history, so the per-process decision sequences must match —
the basis of the sim-as-oracle cross-check.

Op vocabulary
-------------
``internal``/``external``/``step`` target a *component*: ``C1`` applies
the same :class:`~repro.app.workload.Action` to every replica of
component 1 (an active and its shadows share one action stream, paper
Section 2.1); a peer role id (``P2`` in the paper shape, ``P1``..``PU``
generally) applies it to that peer.  ``tb-round`` triggers one
checkpoint establishment on every in-service engine (the engines'
periodic timers are parked far in the future so rounds happen only when
scripted).  ``crash``/``restart`` name a node; restart implies the
coordinated hardware recovery.  ``settle`` is a pure barrier.

Targets resolve against a :class:`~repro.topology.model.Topology` via
:func:`member_targets`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Tuple

from ..app.workload import Action, ActionKind
from ..topology.model import MemberKind, Topology

#: Script-injected actions use indices far past any generated stream.
SCRIPT_ACTION_BASE = 20_000_000

_ACTION_KINDS = {
    "internal": ActionKind.SEND_INTERNAL,
    "external": ActionKind.SEND_EXTERNAL,
    "step": ActionKind.LOCAL_STEP,
}


@dataclasses.dataclass(frozen=True)
class ScriptOp:
    """One scripted operation.

    ``target`` is a component name for application ops, a node name for
    ``crash``/``restart``, and empty for ``tb-round``/``settle``.
    ``stimulus`` is the deterministic application input.
    """

    op: str
    target: str = ""
    stimulus: int = 0

    def is_application(self) -> bool:
        return self.op in _ACTION_KINDS

    def action(self, sequence: int) -> Action:
        """The workload action this op injects (identical on every
        backend and every replica it fans out to)."""
        if not self.is_application():
            raise ValueError(f"op {self.op!r} carries no action")
        return Action(index=SCRIPT_ACTION_BASE + sequence,
                      kind=_ACTION_KINDS[self.op], gap=0.0,
                      stimulus=self.stimulus)


def member_targets(target: str, topology: Topology) -> Tuple[str, ...]:
    """Resolve an application-op target to member role ids.

    ``C{n}`` fans out to component ``n``'s active and all its shadows
    (one shared action stream); a peer's role id targets that peer.
    """
    if target.startswith("C") and target[1:].isdigit():
        component = int(target[1:])
        active = topology.active_of(component)
        return (active.role_id,) + tuple(
            s.role_id for s in topology.shadows_of(component))
    member = topology.member(target)
    if member.kind is not MemberKind.PEER:
        raise ValueError(f"target {target!r} names a guarded replica; "
                         f"use C{member.component} for its component")
    return (member.role_id,)


@dataclasses.dataclass(frozen=True)
class WorkloadScript:
    """An ordered, barrier-separated op sequence."""

    ops: Tuple[ScriptOp, ...]

    def __iter__(self) -> Iterator[ScriptOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def numbered(self) -> List[Tuple[int, ScriptOp]]:
        """Ops with their injection sequence numbers (used as action
        indices, so both backends construct identical actions)."""
        return list(enumerate(self.ops))


def smoke_script() -> WorkloadScript:
    """A short crash-free script for quick conformance smokes."""
    return WorkloadScript(ops=(
        ScriptOp("internal", "C1", stimulus=1),
        ScriptOp("tb-round"),
        ScriptOp("external", "C1", stimulus=2),
        ScriptOp("tb-round"),
    ))


def topology_script(topology: Topology,
                    crash: bool = True) -> WorkloadScript:
    """The canonical cross-check script over a topology — every
    decision family the equivalence claim covers.

    Every component contaminates (its active takes a pseudo checkpoint,
    the peers their Type-1s) and then validates, so each guarded pair
    and the whole peer mesh see a dirty (volatile-copy) and a clean
    (current-state) establishment; component 1 re-contaminates and the
    first peer validates from its own side; optionally the first peer's
    node crashes and the coordinated hardware recovery rolls everyone
    to the line; post-recovery traffic and a final establishment close
    the run.  Stimuli are deterministic so both backends construct
    identical actions.
    """
    components = [f"C{c}" for c in range(1, topology.n_components + 1)]
    first_peer = topology.peers()[0]
    ops: List[ScriptOp] = []
    stimulus = 10
    for target in components:
        ops.append(ScriptOp("internal", target, stimulus=stimulus + 1))
        ops.append(ScriptOp("internal", target, stimulus=stimulus + 2))
        stimulus += 2
    ops.append(ScriptOp("tb-round"))
    for target in components:
        stimulus += 1
        ops.append(ScriptOp("external", target, stimulus=stimulus))
    ops.append(ScriptOp("tb-round"))
    # Re-contaminate component 1, validate from the peer side.
    ops.append(ScriptOp("internal", "C1", stimulus=stimulus + 1))
    ops.append(ScriptOp("external", first_peer.role_id, stimulus=stimulus + 2))
    stimulus += 2
    ops.append(ScriptOp("tb-round"))
    if crash:
        ops.append(ScriptOp("crash", first_peer.node_id))
        ops.append(ScriptOp("settle"))
        ops.append(ScriptOp("restart", first_peer.node_id))
    ops.append(ScriptOp("internal", "C1", stimulus=stimulus + 1))
    ops.append(ScriptOp("external", "C1", stimulus=stimulus + 2))
    ops.append(ScriptOp("tb-round"))
    return WorkloadScript(ops=tuple(ops))
