"""N-component/K-shadow membership model.

The paper fixes a three-process shape — ``P1_act``, ``P1_sdw``,
``P2`` — and the rest of the repo historically hard-coded those names.
This package makes the shape a first-class value: a
:class:`~repro.topology.model.Topology` describes N guarded components
with K shadows each plus unguarded peers; a
:class:`~repro.topology.view.GroupView` tracks epoch-numbered
membership as nodes crash and recover; and a deterministic election
(:mod:`repro.topology.election`) picks takeover successors so the
system survives a shadow itself crashing.  ``Topology.paper()`` is the
exact paper shape and reproduces every pinned result bit-for-bit.
"""

from .election import CRASHED, DEPOSED, UP, elect_successor, eligible
from .engines import (TopologyActiveEngine, TopologyPeerEngine,
                      TopologyShadowEngine)
from .model import Member, MemberKind, Topology, parse_topology
from .recovery import TopologyRecoveryManager
from .view import GroupView

__all__ = [
    "CRASHED", "DEPOSED", "UP",
    "GroupView", "Member", "MemberKind", "Topology",
    "TopologyActiveEngine", "TopologyPeerEngine", "TopologyShadowEngine",
    "TopologyRecoveryManager",
    "elect_successor", "eligible", "parse_topology",
]
