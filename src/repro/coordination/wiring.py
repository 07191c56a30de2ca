"""What a topology member runs — decided here and nowhere else.

One MDCD engine family serves the coordinated schemes on every
membership: the per-source-provenance engines
(:mod:`repro.topology.engines`), which on ``Topology.paper()`` are the
modified algorithms of Appendix A.  The uncoordinated paper baselines
(naive, write-through) run the original protocol's ``Original*``
engines (:mod:`repro.mdcd.original`).  The sim builder
(:class:`~repro.coordination.scheme.System`) and the live agent
(:class:`~repro.live.agent.LiveAgent`) both wire a member through
:func:`software_engine`, so the two backends cannot disagree on the
engine class or its audiences; the engine a promoted shadow switches to
follows from its shadow engine (``takeover_engine()``), and the one
recovery manager that promotes it from :func:`recovery_manager`.  This
module is the only reader of ``Topology.is_paper``: it picks the
uncoordinated schemes' engines and the paper peer's route list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..app.acceptance import AcceptanceTest, AcceptanceTestConfig
from ..mdcd.original import (OriginalActiveEngine, OriginalPeerEngine,
                             OriginalShadowEngine)
from ..topology.engines import (TopologyActiveEngine, TopologyPeerEngine,
                                TopologyShadowEngine)
from ..topology.model import Member, MemberKind, Topology
from ..topology.recovery import TopologyRecoveryManager
from ..topology.view import GroupView
from ..types import ProcessId


def _pids(members) -> List[ProcessId]:
    return [ProcessId(m.role_id) for m in members]


def software_engine(topology: Topology, member: Member, scheme, process,
                    at_config: AcceptanceTestConfig, rng):
    """The MDCD engine ``member`` of ``topology`` runs under ``scheme``,
    built on ``process`` (acceptance tests draw from ``rng``).

    Actives and shadows address the peers, stimulus-routed.  The paper
    peer's one route is component 1's pair (it multicasts to the guarded
    pair, Fig. 1); any other topology's peers route to each other, one
    peer a route — actives there are pure ingress and receive no
    application traffic, so a guarded pair's action streams never
    diverge when *another* component recovers, and the peer mesh is
    where multi-source contamination mixes and the per-source taint
    maps earn their keep.
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
    if not scheme.uses_modified_mdcd:
        if kind is MemberKind.ACTIVE:
            shadow, = _pids(topology.shadows_of(member.component))
            return OriginalActiveEngine(process, acceptance_test(),
                                        peer=peers[0], shadow=shadow)
        if kind is MemberKind.SHADOW:
            return OriginalShadowEngine(process)
        return OriginalPeerEngine(process, acceptance_test())
    if kind is MemberKind.ACTIVE:
        return TopologyActiveEngine(
            process, acceptance_test(),
            shadows=_pids(topology.shadows_of(member.component)), peers=peers)
    if kind is MemberKind.SHADOW:
        active = topology.active_of(member.component)
        return TopologyShadowEngine(
            process, active_id=ProcessId(active.role_id), peers=peers)
    if topology.is_paper:
        routes = [_pids(topology.component_members(1))]
    else:
        routes = [[pid] for pid in peers if pid != process.process_id]
    return TopologyPeerEngine(
        process, acceptance_test(), active_ids=_pids(topology.actives()),
        routes=routes,
        notification_recipients=[pid for pid in _pids(topology.members)
                                 if pid != process.process_id])


def recovery_manager(topology: Topology, members: Dict[str, object],
                     nodes: Dict[str, object], incarnation, trace, clock
                     ) -> Tuple[GroupView, object]:
    """The group view and the installed software recovery manager of a
    system over ``topology`` (``members``: role id -> process)."""
    view = GroupView(topology, trace=trace, clock=clock)
    for node in nodes.values():
        node.on_crash(view._on_node_crash)
        node.on_restart(view._on_node_restart)
    manager = TopologyRecoveryManager(
        topology, view, members, incarnation=incarnation, trace=trace)
    manager.install()
    return view, manager
