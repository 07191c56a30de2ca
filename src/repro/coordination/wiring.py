"""What a topology member runs — decided here and nowhere else.

The sim builder (:class:`~repro.coordination.scheme.System`) and the
live agent (:class:`~repro.live.agent.LiveAgent`) build each member on
their own substrate through :func:`action_stream`, :func:`low_versions`,
:func:`ft_process` and :func:`attach_engines` (the MDCD engine of
:func:`software_engine` plus the scheme's hardware engine), so the two
backends cannot disagree on a member's version, engines or audiences.
One MDCD engine family (:mod:`repro.topology.engines`) serves every
scheme on every membership; the scheme sets its ``modified`` switch
(Appendix A on the coordinated schemes, the original Section 2.1
protocol on the baselines).  A promoted shadow's engine follows from
its shadow engine (``takeover_engine()``), and the sim's one software
recovery manager from :func:`recovery_manager`.  This module is the
only reader of ``Topology.is_paper``: it confines the uncoordinated
schemes to the paper shape and picks the paper peer's route list.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..app.acceptance import AcceptanceTest, AcceptanceTestConfig
from ..app.component import ApplicationComponent
from ..app.versions import HighConfidenceVersion, LowConfidenceVersion
from ..app.workload import Action, WorkloadDriver, generate_actions
from ..host import FtProcess
from ..tb.adapted import AdaptedTbEngine
from ..tb.original import OriginalTbEngine
from ..tb.resync import ResyncService
from ..topology.engines import (TopologyActiveEngine, TopologyPeerEngine,
                                TopologyShadowEngine)
from ..topology.model import Member, MemberKind, Topology
from ..topology.recovery import TopologyRecoveryManager
from ..topology.view import GroupView
from ..types import ProcessId, Role
from .write_through import WriteThroughEngine


def _pids(members) -> List[ProcessId]:
    return [ProcessId(m.role_id) for m in members]


def action_stream(config, member: Member, rng) -> List[Action]:
    """``member``'s action stream under the system ``config`` (guarded
    components run ``workload1``, peers ``workload2``), drawn from
    ``rng``; a component's replicas share it."""
    workload = (config.workload2 if member.kind is MemberKind.PEER
                else config.workload1)
    return generate_actions(
        dataclasses.replace(workload, horizon=config.horizon), rng,
        member.stream)


def low_versions(topology: Topology) -> Dict[int, LowConfidenceVersion]:
    """Each guarded component's low-confidence version (the one a
    software design fault is armed in), by component number."""
    return {c: LowConfidenceVersion(f"component{c}-low")
            for c in range(1, topology.n_components + 1)}


def ft_process(config, member: Member, *, node, network, scheduler,
               actions: List[Action],
               versions: Dict[int, LowConfidenceVersion], incarnation,
               msg_ids, trace) -> FtProcess:
    """The process hosting ``member`` under the system ``config`` on
    its substrate (``node``, ``network``, the driver's ``scheduler``):
    a guarded active runs its component's entry of ``versions``, a
    shadow or peer a high-confidence version."""
    if member.kind is MemberKind.ACTIVE:
        version = versions[member.component]
    elif member.kind is MemberKind.SHADOW:
        version = HighConfidenceVersion(f"{member.stream}-high")
    else:
        version = HighConfidenceVersion(member.stream)
    process = FtProcess(
        process_id=ProcessId(member.role_id), node=node, network=network,
        component=ApplicationComponent(member.stream, version),
        driver=WorkloadDriver(scheduler, actions, member.driver),
        incarnation=incarnation, msg_ids=msg_ids,
        role=Role.of(member.role_id), trace=trace)
    process.is_guarded_active = member.kind is MemberKind.ACTIVE
    # Validated journal records live ten minutes, and never under four
    # TB intervals, so pruning cannot touch records near a live line.
    process.journal_retention = max(600.0, 4.0 * config.tb.interval)
    # The adapted TB's checkpoint swap can durably anchor a process
    # *before* internal sends its peers durably reflect receiving (e.g.
    # P1_act's pseudo checkpoint vs. P2's current state once a later AT
    # validated those messages).  Such lines are safe exactly under the
    # piecewise-determinism assumption of message-logging recovery: the
    # rolled-back sender's replay regenerates the identical per-receiver
    # stream and receivers deduplicate it — so the coordinated schemes
    # carry destination sequence numbers.  Found by the schedule audit;
    # see DESIGN.md.
    process.replay_dedup = config.scheme.uses_modified_mdcd
    return process


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
    modified = scheme.uses_modified_mdcd
    if kind is MemberKind.ACTIVE:
        return TopologyActiveEngine(
            process, acceptance_test(),
            shadows=_pids(topology.shadows_of(member.component)), peers=peers,
            modified=modified)
    if kind is MemberKind.SHADOW:
        active = topology.active_of(member.component)
        return TopologyShadowEngine(
            process, active_id=ProcessId(active.role_id), peers=peers,
            modified=modified)
    if topology.is_paper:
        routes = [_pids(topology.component_members(1))]
    else:
        routes = [[pid] for pid in peers if pid != process.process_id]
    return TopologyPeerEngine(
        process, acceptance_test(), active_ids=_pids(topology.actives()),
        routes=routes,
        notification_recipients=[pid for pid in _pids(topology.members)
                                 if pid != process.process_id],
        modified=modified)


def attach_engines(topology: Topology, config,
                   members: Dict[str, FtProcess], rng, scheduler, clocks,
                   trace) -> Optional[ResyncService]:
    """Attach to each of ``members`` (role id -> process; all of a
    system's, or the one a live agent hosts) its MDCD engine and the
    hardware engine of ``config.scheme``; return the resync service
    the TB engines share over ``clocks`` (``None`` without TB)."""
    from .scheme import Scheme  # scheme.py imports this module
    scheme = config.scheme
    software = {
        rid: software_engine(topology, topology.member(rid), scheme, proc,
                             config.at, rng)
        for rid, proc in members.items()}
    resync = None
    hardware = dict.fromkeys(members)
    if scheme is Scheme.WRITE_THROUGH:
        hardware = {rid: WriteThroughEngine(proc)
                    for rid, proc in members.items()}
    elif scheme.has_stable_checkpoints:
        resync = ResyncService(scheduler, clocks, trace)
        tb_config = config.tb
        if scheme is Scheme.COORDINATED_NO_SWAP:
            tb_config = dataclasses.replace(tb_config,
                                            swap_on_confidence_change=False)
        engine_cls = (OriginalTbEngine if scheme is Scheme.NAIVE
                      else AdaptedTbEngine)
        hardware = {rid: engine_cls(proc, tb_config, config.clock,
                                    config.network, resync=resync)
                    for rid, proc in members.items()}
    for rid, proc in members.items():
        proc.attach_engines(software=software[rid], hardware=hardware[rid])
    return resync


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
