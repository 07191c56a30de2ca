"""Per-component software recovery with deterministic shadow election.

The one software recovery manager, on every membership and scheme.  On
the paper's three processes it promotes *the* shadow when *the* active
fails (paper Section 2.1).  With N guarded components and K shadows
each, recovery is per-component: when a
component's active is condemned, the takeover target is chosen by the
deterministic election (:mod:`repro.topology.election`) over the
current :class:`~repro.topology.view.GroupView` — so the system
survives the preferred shadow itself being crashed, and every observer
agrees on the successor.  The losing shadows of the recovered
component are retired (their suppressed logs mirror a producer that no
longer exists); the other components stay guarded and untouched — in
the ``NxK+U`` interaction shape their states carry no provenance from
the failed component, so the paper's locality argument applies
component-wise.  Every peer stops addressing the deposed active.

A peer's failed acceptance test implicates every source in its taint
map: each such component is recovered (contamination could have
originated at any of them — the conservative reading of detection
without attribution).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from ..mdcd.recovery import drop_recipient, local_decision, promote_shadow
from ..messages.message import Message
from ..types import RecoveryAction
from .model import MemberKind, Topology
from .view import GroupView


class TopologyRecoveryManager:
    """Coordinates shadow takeovers across an N-component topology.

    Installed on every process as ``process.recovery_manager``;
    engines escalate failed ATs here.  Holds only picklable references
    (processes, the view, bound methods) so systems warm-start.
    """

    def __init__(self, topology: Topology, view: GroupView,
                 members: Dict[str, object], incarnation, trace) -> None:
        self.topology = topology
        self.view = view
        self.members = dict(members)
        self.incarnation = incarnation
        self.trace = trace
        #: Components whose takeover has completed.
        self.completed: Dict[int, bool] = {}
        #: Components whose takeover waits for a shadow node restart.
        self.deferred: Dict[int, bool] = {}
        #: Last-recovery bookkeeping, aggregated over components.
        self.decisions: Dict[object, RecoveryAction] = {}
        self.distances: Dict[object, float] = {}
        self.resent = 0
        self.suppressed = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach this manager to every process."""
        for proc in self.members.values():
            proc.recovery_manager = self

    def recover(self, detected_by, failed_message: Message) -> None:
        """Run takeovers for every component the detection implicates."""
        for component in self._suspect_components(detected_by):
            self._recover_component(component, detected_by, failed_message)

    # ------------------------------------------------------------------
    def _suspect_components(self, detected_by) -> List[int]:
        """Which components a failed AT at ``detected_by`` implicates."""
        role_id = str(detected_by.process_id)
        member = self.topology.member(role_id)
        if member.kind is not MemberKind.PEER:
            return [member.component]
        # A peer's state went bad: any source in its taint map could be
        # the origin.  An empty map (possible only under imperfect AT
        # coverage) implicates every still-guarded component.
        taint = detected_by.mdcd.taint_map or {}
        suspects = sorted(
            self.topology.member(src).component for src in taint
            if src in {m.role_id for m in self.topology.actives()})
        if suspects:
            return suspects
        return [c for c in range(1, self.topology.n_components + 1)
                if not self.completed.get(c)]

    def _component_shadows(self, component: int):
        return [self.members[s.role_id]
                for s in self.topology.shadows_of(component)]

    def _peer_processes(self):
        return [self.members[p.role_id] for p in self.topology.peers()]

    def _depose(self, active) -> None:
        """Fail-stop a condemned active and stop every peer addressing
        it."""
        if not active.deposed:
            active.depose()
        self.view.note_deposed(str(active.process_id))
        for peer in self._peer_processes():
            drop_recipient(peer.software, active.process_id)

    def _deferred_recover(self, component: int, detected_by,
                          failed_message: Message, _node) -> None:
        self._recover_component(component, detected_by, failed_message)

    def _recover_component(self, component: int, detected_by,
                           failed_message: Message) -> None:
        sim = detected_by.sim
        if self.completed.get(component):
            self.trace.record(sim.now, "recovery.software.duplicate",
                              detected_by.process_id, component=component)
            return
        active = self.members[self.topology.active_of(component).role_id]
        winner_id = self.view.elect(component)
        if winner_id is None or self.members[winner_id].node.crashed:
            # Coincident software + hardware faults took out every
            # eligible shadow.  Fail-stop the faulty active now (no
            # further contamination) and defer the takeover until any
            # of the component's shadow nodes restarts — the hardware
            # recovery on that restart (its listener registered
            # earlier) rolls the survivors back first, then the
            # deferred takeover re-runs the election.
            self._depose(active)
            if not self.deferred.get(component):
                self.deferred[component] = True
                self.trace.record(sim.now, "recovery.software.deferred",
                                  detected_by.process_id, component=component)
                for shadow in self._component_shadows(component):
                    shadow.node.on_restart(functools.partial(
                        self._deferred_recover, component, detected_by,
                        failed_message))
            return
        self.deferred[component] = False
        self.completed[component] = True
        winner = self.members[winner_id]
        self.trace.record(sim.now, "recovery.software.start",
                          detected_by.process_id, component=component,
                          elected=winner_id, failed=failed_message.describe())
        # Fence off every message of the failed incarnation.
        self.incarnation.bump()
        self._depose(active)

        # Local decisions: the elected shadow plus every peer.  Other
        # components' members carry no provenance from this one (on
        # ``NxK+U`` no application traffic flows into a guarded
        # component), so the paper's local rule has nothing to decide
        # for them.
        for proc in [winner] + self._peer_processes():
            local_decision(proc, self.decisions, self.distances)

        resent, suppressed = promote_shadow(winner)
        self.resent += resent
        self.suppressed += suppressed
        self.view.note_promoted(winner_id)
        self._retire_losing_shadows(component, winner_id)
        deposed = {proc.process_id for proc in self.members.values()
                   if proc.deposed}
        for proc in self.members.values():
            if not (proc.deposed or proc.node.crashed):
                proc.resend_unacknowledged(deposed)
        active.mdcd.guarded = False
        if not any(not self.completed.get(c)
                   for c in range(1, self.topology.n_components + 1)):
            # The last guarded component left service: MDCD goes on
            # leave everywhere (paper Section 4.2, last paragraph).
            for proc in self._peer_processes():
                proc.mdcd.guarded = False
        self.trace.record(
            sim.now, "recovery.software.done", None, component=component,
            elected=winner_id, epoch=self.view.epoch,
            decisions={str(k): v.value for k, v in self.decisions.items()},
            resent=self.resent, suppressed=self.suppressed)

    # ------------------------------------------------------------------
    def _retire_losing_shadows(self, component: int, winner_id: str) -> None:
        """Depose the component's remaining shadows: their suppressed
        logs mirror a producer that no longer exists."""
        for spec in self.topology.shadows_of(component):
            if spec.role_id == winner_id:
                continue
            proc = self.members[spec.role_id]
            if not proc.deposed:
                proc.depose()
            proc.mdcd.guarded = False
            self.view.note_deposed(spec.role_id)
