"""The one wiring site (:mod:`repro.coordination.wiring`): which MDCD
engine a topology member runs, on the sim builder and on a live agent
built from the harness's own spec."""

import os
import sys

import pytest

from repro.coordination.scheme import Scheme, build_system
from repro.live.agent import LiveAgent
from repro.live.harness import LiveHarness
from repro.mdcd.recovery import TakeoverEngine
from repro.topology.recovery import TopologyRecoveryManager

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Every recipient collection an engine family keeps.
AUDIENCES = ("peer", "shadow", "component1_recipients", "shadows", "peers",
             "active_id", "active_ids", "routes", "notification_recipients")

KINDS = ("Active", "Shadow", "Peer")


def wiring(engine):
    """An engine's class and audiences, comparable across backends."""
    return (type(engine).__name__,
            {name: getattr(engine, name) for name in AUDIENCES
             if hasattr(engine, name)})


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
    system = build_system(topology=spec, horizon=100.0)
    harness = LiveHarness(seed=0, workdir=str(tmp_path), topology=spec)
    for member in system.topology.members:
        sim_engine = system.member(member.role_id).software
        agent = live_agent(harness, member.role_id)
        assert agent.node.node_id == member.node_id
        assert wiring(agent.process.software) == wiring(sim_engine), \
            member.role_id
        if hasattr(sim_engine, "takeover_engine"):
            assert wiring(agent.process.software.takeover_engine()) == \
                wiring(sim_engine.takeover_engine())


@pytest.mark.parametrize("scheme, family", [
    (Scheme.NAIVE, "Original"), (Scheme.WRITE_THROUGH, "Original"),
    (Scheme.MDCD_ONLY, "Original"), (Scheme.COORDINATED, "Topology"),
    (Scheme.COORDINATED_NO_SWAP, "Topology")])
def test_paper_engine_family_follows_the_scheme(scheme, family):
    system = build_system(scheme=scheme, horizon=100.0)
    assert [type(proc.software).__name__ for proc in system.process_list()] \
        == [f"{family}{kind}Engine" for kind in KINDS]
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
