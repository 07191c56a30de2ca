"""The one wiring site (:mod:`repro.coordination.wiring`): what a
topology member runs, on the sim builder and on a live agent built from
the harness's own spec."""

import os
import sys

import pytest

from repro.coordination.scheme import Scheme, build_system
from repro.live.agent import LiveAgent
from repro.live.harness import LiveHarness
from repro.mdcd.recovery import TakeoverEngine
from repro.runtime.sim_backend import scripted_config
from repro.topology.recovery import TopologyRecoveryManager

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Every recipient collection an engine family keeps.
AUDIENCES = ("shadows", "peers", "active_id", "active_ids", "routes",
             "notification_recipients")

KINDS = ("Active", "Shadow", "Peer")


def wiring(engine):
    """An engine's class and audiences, comparable across backends."""
    return (type(engine).__name__,
            {name: getattr(engine, name) for name in AUDIENCES
             if hasattr(engine, name)})


def member(process):
    """Everything the builder decides about a process, comparable
    across backends (the substrate — node, transport, clock — aside)."""
    version = process.component.version
    return {"version": (type(version).__name__, version.name),
            "hardware": (type(process.hardware).__name__,
                         process.hardware.config),
            "journal_retention": process.journal_retention,
            "replay_dedup": process.replay_dedup,
            "is_guarded_active": process.is_guarded_active,
            "stable_history": process.node.stable._history}


@pytest.fixture
def live_agent(tmp_path, monkeypatch):
    """Build in-process :class:`LiveAgent` s from harness specs (an
    agent reads its control channel off stdin: give it a pipe)."""
    read_end, write_end = os.pipe()
    monkeypatch.setattr(sys, "stdin", os.fdopen(read_end))
    agents = []

    def build(harness, member):
        agents.append(LiveAgent(harness._spec(member)))
        return agents[-1]
    yield build
    for agent in agents:
        agent.transport.close()
        agent.selector.close()
        agent._decision_file.close()
    sys.stdin.close()
    os.close(write_end)


@pytest.mark.parametrize("spec", ["paper", "1x2+2", "2x2+3"])
def test_sim_and_live_wire_every_member_alike(spec, live_agent, tmp_path):
    system = build_system(scripted_config(topology=spec))
    harness = LiveHarness(seed=0, workdir=str(tmp_path), topology=spec)
    for slot in system.topology.members:
        sim_process = system.member(slot.role_id)
        sim_engine = sim_process.software
        agent = live_agent(harness, slot.role_id)
        assert agent.node.node_id == slot.node_id
        assert member(agent.process) == member(sim_process), slot.role_id
        assert wiring(agent.process.software) == wiring(sim_engine), \
            slot.role_id
        assert agent.process.software.modified is \
            Scheme.COORDINATED.uses_modified_mdcd
        if hasattr(sim_engine, "takeover_engine"):
            assert wiring(agent.process.software.takeover_engine()) == \
                wiring(sim_engine.takeover_engine())


@pytest.mark.parametrize("scheme, family", [
    (Scheme.NAIVE, "Topology"), (Scheme.WRITE_THROUGH, "Topology"),
    (Scheme.MDCD_ONLY, "Topology"), (Scheme.COORDINATED, "Topology"),
    (Scheme.COORDINATED_NO_SWAP, "Topology")])
def test_paper_engine_family_follows_the_scheme(scheme, family):
    system = build_system(scheme=scheme, horizon=100.0)
    assert [type(proc.software).__name__ for proc in system.process_list()] \
        == [f"{family}{kind}Engine" for kind in KINDS]
    assert all(proc.software.modified is scheme.uses_modified_mdcd
               for proc in system.process_list())
    assert isinstance(system.sw_recovery, TopologyRecoveryManager)
    assert isinstance(system.shadow.software.takeover_engine(), TakeoverEngine)


def test_paper_peer_multicasts_into_component_one():
    peer = build_system(scheme=Scheme.COORDINATED, horizon=100.0).peer.software
    assert peer.routes == [["P1_act", "P1_sdw"]]
    assert peer.notification_recipients == ["P1_act", "P1_sdw"]


@pytest.mark.parametrize("spec", ["1x1+3", "1x2+2", "2x2+3", "4x1"])
def test_every_other_membership_runs_the_topology_engines(spec):
    system = build_system(topology=spec, horizon=100.0)
    for member in system.topology.members:
        engine = system.member(member.role_id).software
        assert type(engine).__name__ == \
            f"Topology{member.kind.value.capitalize()}Engine"
        if hasattr(engine, "takeover_engine"):
            assert isinstance(engine.takeover_engine(), TakeoverEngine)
    assert isinstance(system.sw_recovery, TopologyRecoveryManager)


@pytest.mark.parametrize("scheme", [Scheme.NAIVE, Scheme.WRITE_THROUGH,
                                    Scheme.MDCD_ONLY])
def test_uncoordinated_scheme_needs_the_paper_shape(scheme):
    with pytest.raises(ValueError, match=(
            "non-paper topology '2x2' requires a coordinated scheme: "
            "the topology engines generalize the modified MDCD algorithms")):
        build_system(scheme=scheme, topology="2x2")
