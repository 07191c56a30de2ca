"""System builder: complete systems under each protocol scheme the
paper discusses, over any :class:`~repro.topology.model.Topology`.

A :class:`System` instantiates the paper's architecture — by default
the three-process shape with ``P1_act`` (low-confidence version),
``P1_sdw`` (high-confidence version of the same component, same
workload stream) and ``P2`` (the second component), or any
``--topology NxK`` membership of N guarded components with K shadows
each plus unguarded peers — and wires the protocol engines according
to a :class:`Scheme`:

* ``MDCD_ONLY`` — original MDCD, volatile checkpoints only (no hardware
  fault tolerance): the Fig. 1 setting.
* ``WRITE_THROUGH`` — original MDCD whose Type-2 checkpoints are also
  written through to stable storage (Section 3's strawman; Fig. 7's
  ``E[D_wt]``).
* ``NAIVE`` — original MDCD + unmodified original TB running side by
  side with no coordination (Section 4.1; Fig. 4's interference).
* ``COORDINATED`` — modified MDCD + adapted TB: the paper's
  contribution (Fig. 7's ``E[D_co]``).
* ``COORDINATED_NO_SWAP`` — coordination with the mid-blocking content
  swap disabled (ablation; reproduces the Fig. 4(b) recoverability
  violation inside the otherwise-coordinated scheme).

``Topology.paper()`` (the default) drives the builder through exactly
the historical construction order — node creation, workload-stream RNG
draws, process and acceptance-test instantiation — so every paper-shape
run, and in particular the pinned Fig. 6 golden digests, is bit-for-bit
identical to the pre-topology builder.  How a member is built (stream,
version, process, MDCD and hardware engines; the live agent builds its
one member the same way) and which recovery manager a membership gets
is decided in one place, :mod:`repro.coordination.wiring`: every
scheme runs the
:mod:`repro.topology.engines` family, with the paper's modifications on
iff :attr:`Scheme.uses_modified_mdcd` ("original MDCD" above is that
family with them off).  Non-paper topologies require a coordinated
scheme.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional

from ..app.acceptance import AcceptanceTestConfig
from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from ..app.workload import WorkloadConfig
from ..errors import ConfigurationError
from ..host import FtProcess, IncarnationCounter
from ..messages.message import MsgIdAllocator
from ..runtime import (ClockConfig, Network, NetworkConfig, Node, RngRegistry,
                       Simulator, TraceRecorder)
from ..sim.events import EventPriority
from ..tb.blocking import TbConfig
from ..tb.hardware_recovery import HardwareRecoveryCoordinator
from ..topology.model import parse_topology
from ..types import FaultKind, NodeId, Role
from .wiring import (action_stream, attach_engines, ft_process,
                     low_versions, recovery_manager)


class Scheme(enum.Enum):
    """Which protocol combination a system runs."""

    MDCD_ONLY = "mdcd-only"
    WRITE_THROUGH = "write-through"
    NAIVE = "naive"
    COORDINATED = "coordinated"
    COORDINATED_NO_SWAP = "coordinated-no-swap"

    @property
    def has_stable_checkpoints(self) -> bool:
        """Whether the scheme tolerates hardware faults at all."""
        return self is not Scheme.MDCD_ONLY

    @property
    def uses_modified_mdcd(self) -> bool:
        """Whether the scheme runs the Appendix A (modified) algorithms;
        the MDCD engines' ``modified`` switch."""
        return self in (Scheme.COORDINATED, Scheme.COORDINATED_NO_SWAP)


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a reproducible system."""

    scheme: Scheme = Scheme.COORDINATED
    seed: int = 0
    horizon: float = 10_000.0
    clock: ClockConfig = dataclasses.field(default_factory=ClockConfig)
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    tb: TbConfig = dataclasses.field(default_factory=TbConfig)
    workload1: WorkloadConfig = dataclasses.field(default_factory=WorkloadConfig)
    workload2: WorkloadConfig = dataclasses.field(default_factory=WorkloadConfig)
    at: AcceptanceTestConfig = dataclasses.field(default_factory=AcceptanceTestConfig)
    trace_enabled: bool = True
    #: Optional category-prefix allowlist for the trace (``None`` keeps
    #: everything).  Campaign runners that assert over one slice of the
    #: trace set this so every other record costs nothing.
    trace_categories: Optional[tuple] = None
    #: How many stable-checkpoint epochs each node retains (>= 2 so the
    #: recovery line survives a laggard establishment; scenario analyses
    #: raise it to audit every historical line).
    stable_history: int = 2
    #: Membership spec: ``"paper"`` (the exact three-process shape) or
    #: ``"NxK"``/``"NxK+U"`` — N guarded components with K shadows each
    #: plus U unguarded peers (default U = N).  Non-paper topologies
    #: require a coordinated scheme.
    topology: str = "paper"


class System:
    """A built, runnable system over a topology (paper shape by
    default)."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.topology = parse_topology(config.topology)
        self.sim = Simulator()
        #: Per-system message-id sequence.  Captured and thawed with the
        #: system (warm-start images), so thawed and forked systems in
        #: one OS process never share or reset global allocator state.
        self.msg_ids = MsgIdAllocator()
        self.rng = RngRegistry(config.seed)
        self.trace = TraceRecorder(enabled=config.trace_enabled,
                                   categories=config.trace_categories)
        self.network = Network(self.sim, config.network, self.rng)
        self.incarnation = IncarnationCounter()

        self.nodes: Dict[str, Node] = {
            name: Node(NodeId(name), self.sim, config.clock, self.rng,
                       stable_history=config.stable_history)
            for name in dict.fromkeys(self.topology.node_ids())
        }

        # One action stream per workload stream, shared by a component's
        # replicas (each stream draws from its own seed-derived RNG).
        actions: Dict[str, list] = {}
        self.low_versions = low_versions(self.topology)
        #: Component 1's low-confidence version (historical accessor).
        self.low_version = self.low_versions[1]

        self.processes: Dict[Role, FtProcess] = {}
        self.members: Dict[str, FtProcess] = {}
        for member in self.topology.members:
            if member.stream not in actions:
                actions[member.stream] = action_stream(config, member,
                                                       self.rng)
            process = ft_process(
                config, member, node=self.nodes[member.node_id],
                network=self.network, scheduler=self.sim,
                actions=actions[member.stream], versions=self.low_versions,
                incarnation=self.incarnation, msg_ids=self.msg_ids,
                trace=self.trace)
            self.members[member.role_id] = process
            if process.role is not None:
                self.processes[process.role] = process

        self.resync = attach_engines(
            self.topology, config, self.members, self.rng, self.sim,
            [n.clock for n in self.nodes.values()], self.trace)
        self.hw_recovery: Optional[HardwareRecoveryCoordinator] = None
        if config.scheme.has_stable_checkpoints:
            self.hw_recovery = HardwareRecoveryCoordinator(
                list(self.members.values()), self.incarnation, self.trace)
            self.hw_recovery.install()
        self.view, self.sw_recovery = recovery_manager(
            self.topology, self.members, self.nodes, self.incarnation,
            self.trace, clock=self.sim)
        self._started = False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def active(self) -> FtProcess:
        """``P1_act`` (paper topology only)."""
        return self.processes[Role.ACTIVE_1]

    @property
    def shadow(self) -> FtProcess:
        """``P1_sdw`` (paper topology only)."""
        return self.processes[Role.SHADOW_1]

    @property
    def peer(self) -> FtProcess:
        """``P2`` (paper topology only)."""
        return self.processes[Role.PEER_2]

    def member(self, role_id: str) -> FtProcess:
        """The process serving a topology role id."""
        return self.members[role_id]

    def process_list(self) -> List[FtProcess]:
        """All processes, in topology member order."""
        return [self.members[rid] for rid in self.topology.role_ids()]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_software_fault(self, plan: SoftwareFaultPlan) -> None:
        """Arm a software design fault in the targeted component's
        low-confidence version (component 1 unless the plan says
        otherwise)."""
        if plan.component not in self.low_versions:
            raise ConfigurationError(
                f"software fault names unknown component {plan.component} "
                f"(this topology has "
                f"{', '.join(str(c) for c in sorted(self.low_versions))})")
        self.sim.schedule_at(plan.activate_at, self._set_fault_active,
                             args=(plan.component, True),
                             priority=EventPriority.CONTROL,
                             label="fault:software:activate")
        if plan.deactivate_at is not None:
            self.sim.schedule_at(plan.deactivate_at, self._set_fault_active,
                                 args=(plan.component, False),
                                 priority=EventPriority.CONTROL,
                                 label="fault:software:deactivate")

    def inject_crash(self, plan: HardwareFaultPlan) -> None:
        """Arm a node crash (and its restart ``repair_time`` later)."""
        if plan.node_id not in self.nodes:
            raise ConfigurationError(
                f"crash names unknown node {plan.node_id!r} "
                f"(this topology has {', '.join(self.nodes)})")
        self.sim.schedule_at(plan.crash_at, self._crash_node,
                             args=(plan.node_id, plan.repair_time),
                             priority=EventPriority.CONTROL,
                             label=f"fault:crash:{plan.node_id}")

    def _set_fault_active(self, component: int, active: bool) -> None:
        version = self.low_versions[component]
        version.fault_active = active
        self.trace.record(self.sim.now, "fault.software.activate" if active
                          else "fault.software.deactivate", None,
                          kind=FaultKind.SOFTWARE_DESIGN.value,
                          version=version.name)

    def _crash_node(self, node_id: str, repair_time: float) -> None:
        self.trace.record(self.sim.now, "fault.crash", None,
                          kind=FaultKind.HARDWARE_CRASH.value, node=node_id)
        self.nodes[node_id].crash()
        self.sim.schedule_after(repair_time, self._restart_node,
                                args=(node_id,),
                                priority=EventPriority.CONTROL,
                                label=f"fault:restart:{node_id}")

    def _restart_node(self, node_id: str) -> None:
        self.trace.record(self.sim.now, "fault.restart", None, node=node_id)
        self.nodes[node_id].restart()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every process (genesis checkpoints, first timers,
        workload streams).  Idempotent."""
        if self._started:
            return
        self._started = True
        for proc in self.process_list():
            proc.start()

    def run(self, until: Optional[float] = None) -> None:
        """Start (if needed) and run until ``until`` (default: the
        configured horizon)."""
        self.start()
        self.sim.run(until=until if until is not None else self.config.horizon)

    def release(self) -> None:
        """Hand a finished run back by reference count, skeleton
        included: nothing is left for the cycle collector.

        A system is a web of reference cycles (processes, engines,
        nodes, timers and recovery managers point at each other), so
        without this every finished run — checkpoints, trace and all —
        waits for a full garbage collection, which in a campaign also
        walks whatever is resident (a fork template and its table).
        Campaigns that run thousands of systems call it once a
        schedule's findings are in hand.  It drops the bulk (checkpoint
        stores, encoder chains, the trace, the event queue) and then
        empties every object the cycles run through.  All of it is the
        run's own: what a fork shares with its template's table is only
        ever let go of, never cleared.  The system must not be run or
        inspected afterwards.
        """
        for node in self.nodes.values():
            node.volatile.erase()
            node.stable.release()
        for proc in self.process_list():
            proc.snapshot_encoder.reset()
        self.trace.clear()
        self.sim.clear()
        skeleton = [self.network, self.rng, self.resync, self.hw_recovery,
                    self.sw_recovery, self.view]
        for node in self.nodes.values():
            skeleton += (node.timers, node.clock, node)
        for proc in self.members.values():
            skeleton += (proc.software, proc.hardware, proc.driver, proc)
        for part in skeleton:
            if part is not None:
                vars(part).clear()

    def commission_upgrade(self) -> None:
        """Declare the guarded upgrade successful: retire the shadow,
        trust the upgraded version, and let the coordination disengage
        seamlessly (paper Section 4.2, last paragraph).  See
        :func:`repro.mdcd.commissioning.commission_upgrade`."""
        from ..mdcd.commissioning import commission_upgrade
        commission_upgrade(self)


def build_system(config: Optional[SystemConfig] = None, **overrides) -> System:
    """Build a system from ``config`` (default :class:`SystemConfig`),
    applying keyword overrides to the config first.

    >>> system = build_system(seed=7, scheme=Scheme.COORDINATED)
    >>> system.run(until=100.0)
    """
    base = config if config is not None else SystemConfig()
    if overrides:
        base = dataclasses.replace(base, **overrides)
    return System(base)
