"""Shared fixtures for the test suite."""

import os
import sys

import pytest

from repro.sim.clock import ClockConfig
from repro.sim.kernel import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.types import NodeId


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng():
    """A seeded RNG registry."""
    return RngRegistry(master_seed=1234)


@pytest.fixture
def clock_config():
    """Tight clock bounds for deterministic-ish tests."""
    return ClockConfig(delta=0.01, rho=1e-6)


@pytest.fixture
def net_config():
    """Default network delay bounds."""
    return NetworkConfig(t_min=0.002, t_max=0.02)


@pytest.fixture
def network(sim, net_config, rng):
    """A network bound to the fresh simulator."""
    return Network(sim, net_config, rng)


@pytest.fixture
def trace():
    """An enabled trace recorder."""
    return TraceRecorder(enabled=True)


@pytest.fixture
def make_node(sim, clock_config, rng):
    """Factory for nodes on the shared simulator."""
    def factory(name="N1", stable_history=2):
        return Node(NodeId(name), sim, clock_config, rng,
                    stable_history=stable_history)
    return factory


@pytest.fixture
def live_agent(monkeypatch):
    """Factory: in-process :class:`~repro.live.agent.LiveAgent` s built
    from a harness's specs (an agent reads its control channel off
    stdin: give it a pipe); their sockets and files close afterwards."""
    from repro.live.agent import LiveAgent
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
