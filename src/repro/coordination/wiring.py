"""What a topology member runs — decided here and nowhere else.

Two MDCD engine families serve the two membership shapes: the paper's
three-process algorithms (:mod:`repro.mdcd` — ``Original*`` for the
uncoordinated schemes, ``Modified*`` for the coordinated ones) on
``Topology.paper()``, and the per-source-provenance engines
(:mod:`repro.topology.engines`) on every ``NxK+U`` membership.  The sim
builder (:class:`~repro.coordination.scheme.System`) and the live agent
(:class:`~repro.live.agent.LiveAgent`) both wire a member through
:func:`software_engine`, so the two backends cannot disagree on the
engine class or its audiences; the engine a promoted shadow switches to
follows from its shadow engine (``takeover_engine()``), and the
recovery manager that promotes it from :func:`recovery_manager`.  This
module is the only reader of ``Topology.is_paper``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..app.acceptance import AcceptanceTest, AcceptanceTestConfig
from ..mdcd.modified import (ModifiedActiveEngine, ModifiedPeerEngine,
                             ModifiedShadowEngine)
from ..mdcd.original import (OriginalActiveEngine, OriginalPeerEngine,
                             OriginalShadowEngine)
from ..mdcd.recovery import SoftwareRecoveryManager
from ..topology.engines import (TopologyActiveEngine, TopologyPeerEngine,
                                TopologyShadowEngine)
from ..topology.model import Member, MemberKind, Topology
from ..topology.recovery import TopologyRecoveryManager
from ..topology.view import GroupView
from ..types import ProcessId


#: The paper shape's (active, shadow, peer) engine classes, by whether
#: the scheme runs the modified (Appendix A) algorithms.
_PAPER_ENGINES = {
    True: (ModifiedActiveEngine, ModifiedShadowEngine, ModifiedPeerEngine),
    False: (OriginalActiveEngine, OriginalShadowEngine, OriginalPeerEngine),
}


def _pids(members) -> List[ProcessId]:
    return [ProcessId(m.role_id) for m in members]


def software_engine(topology: Topology, member: Member, scheme, process,
                    at_config: AcceptanceTestConfig, rng):
    """The MDCD engine ``member`` of ``topology`` runs under ``scheme``,
    built on ``process`` (acceptance tests draw from ``rng``).

    Paper shape: active and shadow address the one peer, the peer
    multicasts to the guarded pair.  Any other topology: actives are
    pure ingress — they produce into the peer mesh and receive no
    application traffic, so a guarded pair's action streams never
    diverge when *another* component recovers; peers exchange among
    themselves, which is where multi-source contamination mixes and the
    per-source taint maps earn their keep.
    """
    if not (topology.is_paper or scheme.uses_modified_mdcd):
        raise ValueError(
            f"non-paper topology {topology.spec!r} requires a "
            "coordinated scheme: the topology engines generalize the "
            "modified MDCD algorithms")
    def acceptance_test() -> AcceptanceTest:
        return AcceptanceTest(at_config, rng, member.driver)

    kind = member.kind
    peers = _pids(topology.peers())
    if topology.is_paper:
        active_cls, shadow_cls, peer_cls = _PAPER_ENGINES[
            scheme.uses_modified_mdcd]
        if kind is MemberKind.ACTIVE:
            shadow, = _pids(topology.shadows_of(member.component))
            return active_cls(process, acceptance_test(), peer=peers[0],
                              shadow=shadow)
        if kind is MemberKind.SHADOW:
            return shadow_cls(process)
        return peer_cls(process, acceptance_test())
    if kind is MemberKind.ACTIVE:
        return TopologyActiveEngine(
            process, acceptance_test(),
            shadows=_pids(topology.shadows_of(member.component)), peers=peers)
    if kind is MemberKind.SHADOW:
        active = topology.active_of(member.component)
        return TopologyShadowEngine(
            process, active_id=ProcessId(active.role_id), peers=peers)
    return TopologyPeerEngine(
        process, acceptance_test(), active_ids=_pids(topology.actives()),
        other_peers=[pid for pid in peers if pid != process.process_id],
        notification_recipients=[pid for pid in _pids(topology.members)
                                 if pid != process.process_id])


def recovery_manager(topology: Topology, members: Dict[str, object],
                     nodes: Dict[str, object], incarnation, trace, clock
                     ) -> Tuple[GroupView, object]:
    """The group view and the installed software recovery manager of a
    system over ``topology`` (``members``: role id -> process)."""
    if topology.is_paper:
        # Inert bookkeeping view (no trace, no node listeners): the
        # paper path must stay byte-identical.
        view = GroupView(topology)
        active, shadow, peer = (members[rid] for rid in topology.role_ids())
        manager = SoftwareRecoveryManager(
            active=active, shadow=shadow, peer=peer,
            incarnation=incarnation, trace=trace)
    else:
        view = GroupView(topology, trace=trace, clock=clock)
        for node in nodes.values():
            node.on_crash(view._on_node_crash)
            node.on_restart(view._on_node_restart)
        manager = TopologyRecoveryManager(
            topology, view, members, incarnation=incarnation, trace=trace)
    manager.install()
    return view, manager
