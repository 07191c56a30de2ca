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
identical to the pre-topology builder.  Which MDCD engines and which
recovery manager a membership gets is decided in one place,
:mod:`repro.coordination.wiring`; non-paper topologies require a
coordinated scheme (the topology engines generalize the modified MDCD
algorithms with per-source provenance).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional

from ..app.acceptance import AcceptanceTestConfig
from ..app.component import ApplicationComponent
from ..app.faults import (
    HardwareFaultInjector,
    HardwareFaultPlan,
    SoftwareFaultInjector,
    SoftwareFaultPlan,
)
from ..app.versions import HighConfidenceVersion, LowConfidenceVersion
from ..app.workload import WorkloadConfig, WorkloadDriver, generate_actions
from ..host import FtProcess, IncarnationCounter
from ..messages.message import MsgIdAllocator
from ..runtime import (ClockConfig, Network, NetworkConfig, Node, RngRegistry,
                       Simulator, TraceRecorder)
from ..tb.adapted import AdaptedTbEngine
from ..tb.blocking import TbConfig
from ..tb.hardware_recovery import HardwareRecoveryCoordinator
from ..tb.original import OriginalTbEngine
from ..tb.resync import ResyncService
from ..topology.model import Member, MemberKind, parse_topology
from ..types import NodeId, ProcessId, Role
from .wiring import recovery_manager, software_engine
from .write_through import WriteThroughEngine


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
        """Whether the scheme runs the Appendix A (modified) algorithms."""
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
    #: Retention window for validated journal records; the effective
    #: value is never below four TB intervals so pruning cannot touch
    #: records near a live checkpoint line.
    journal_retention: float = 600.0
    #: How many stable-checkpoint epochs each node retains (>= 2 so the
    #: recovery line survives a laggard establishment; scenario analyses
    #: raise it to audit every historical line).
    stable_history: int = 2
    #: Whether journals and message logs encode as deltas against the
    #: previous capture (full sections when off).
    incremental_snapshots: bool = True
    #: Membership spec: ``"paper"`` (the exact three-process shape) or
    #: ``"NxK"``/``"NxK+U"`` — N guarded components with K shadows each
    #: plus U unguarded peers (default U = N).  Non-paper topologies
    #: require a coordinated scheme.
    topology: str = "paper"

    def with_scheme(self, scheme: Scheme) -> "SystemConfig":
        """Same configuration, different scheme — the paired-comparison
        helper Figure 7 uses (identical seeds and workloads)."""
        return dataclasses.replace(self, scheme=scheme)


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

        # One action stream per distinct workload stream, generated in
        # first-appearance member order — for the paper topology this is
        # "component1" then "component2", the historical RNG draw order.
        actions: Dict[str, list] = {}
        for member in self.topology.members:
            if member.stream in actions:
                continue
            workload = (config.workload2 if member.kind is MemberKind.PEER
                        else config.workload1)
            actions[member.stream] = generate_actions(
                dataclasses.replace(workload, horizon=config.horizon),
                self.rng, member.stream)

        self.low_versions: Dict[int, LowConfidenceVersion] = {
            c: LowConfidenceVersion(f"component{c}-low")
            for c in range(1, self.topology.n_components + 1)}
        #: Component 1's low-confidence version (historical accessor).
        self.low_version = self.low_versions[1]

        self.processes: Dict[Role, FtProcess] = {}
        self.members: Dict[str, FtProcess] = {}
        for member in self.topology.members:
            if member.kind is MemberKind.ACTIVE:
                component = ApplicationComponent(
                    member.stream, self.low_versions[member.component])
            elif member.kind is MemberKind.SHADOW:
                component = ApplicationComponent(
                    member.stream,
                    HighConfidenceVersion(f"{member.stream}-high"))
            else:
                component = ApplicationComponent(
                    member.stream, HighConfidenceVersion(member.stream))
            self._build_process(member, component,
                                WorkloadDriver(self.sim,
                                               actions[member.stream],
                                               member.driver))

        self.resync: Optional[ResyncService] = None
        self.hw_recovery: Optional[HardwareRecoveryCoordinator] = None
        self._wire_engines()
        self.view, self.sw_recovery = recovery_manager(
            self.topology, self.members, self.nodes, self.incarnation,
            self.trace, clock=self.sim)
        self.injectors: List = []
        self._started = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_process(self, member: Member,
                       component: ApplicationComponent,
                       driver: WorkloadDriver) -> None:
        role = Role.of(member.role_id)
        process = FtProcess(
            process_id=ProcessId(member.role_id),
            node=self.nodes[member.node_id], network=self.network,
            component=component, driver=driver, incarnation=self.incarnation,
            role=role, trace=self.trace)
        process.msg_ids = self.msg_ids
        process.is_guarded_active = member.kind is MemberKind.ACTIVE
        process.journal_retention = max(self.config.journal_retention,
                                        4.0 * self.config.tb.interval)
        process.snapshot_encoder.incremental = self.config.incremental_snapshots
        self.members[member.role_id] = process
        if role is not None:
            self.processes[role] = process

    def _wire_engines(self) -> None:
        config = self.config
        scheme = config.scheme
        software = {
            member.role_id: software_engine(
                self.topology, member, scheme, self.members[member.role_id],
                config.at, self.rng)
            for member in self.topology.members}
        if scheme.uses_modified_mdcd:
            # The adapted TB's checkpoint swap can durably anchor a
            # process *before* internal sends its peers durably reflect
            # receiving (e.g. P1_act's pseudo checkpoint vs. P2's
            # current state once a later AT validated those messages).
            # Such lines are safe exactly under the piecewise-
            # determinism assumption of message-logging recovery: the
            # rolled-back sender's replay regenerates the identical
            # per-receiver stream and receivers deduplicate it — so the
            # coordinated schemes carry destination sequence numbers.
            # Found by the schedule audit; see DESIGN.md.
            for proc in self.members.values():
                proc.replay_dedup = True

        hardware: Dict[str, object] = {}
        if scheme in (Scheme.COORDINATED, Scheme.COORDINATED_NO_SWAP,
                      Scheme.NAIVE):
            self.resync = ResyncService(
                self.sim, [n.clock for n in self.nodes.values()], self.trace)
            tb_config = config.tb
            if scheme is Scheme.COORDINATED_NO_SWAP:
                tb_config = dataclasses.replace(tb_config,
                                                swap_on_confidence_change=False)
            engine_cls = (OriginalTbEngine if scheme is Scheme.NAIVE
                          else AdaptedTbEngine)
            for rid, proc in self.members.items():
                hardware[rid] = engine_cls(proc, tb_config, config.clock,
                                           config.network, resync=self.resync)
        elif scheme is Scheme.WRITE_THROUGH:
            for rid, proc in self.members.items():
                hardware[rid] = WriteThroughEngine(proc)

        for rid, proc in self.members.items():
            proc.attach_engines(software=software[rid],
                                hardware=hardware.get(rid))
        if scheme.has_stable_checkpoints:
            self.hw_recovery = HardwareRecoveryCoordinator(
                list(self.members.values()), self.incarnation, self.trace)
            self.hw_recovery.install()

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
    def inject_software_fault(self, plan: SoftwareFaultPlan) -> SoftwareFaultInjector:
        """Arm a software design fault in the targeted component's
        low-confidence version (component 1 unless the plan says
        otherwise)."""
        version = self.low_versions[getattr(plan, "component", 1)]
        injector = SoftwareFaultInjector(self.sim, version, plan, self.trace)
        injector.arm()
        self.injectors.append(injector)
        return injector

    def inject_crash(self, plan: HardwareFaultPlan) -> HardwareFaultInjector:
        """Arm a node crash (and restart)."""
        injector = HardwareFaultInjector(self.sim, self.nodes[plan.node_id],
                                         plan, self.trace)
        injector.arm()
        self.injectors.append(injector)
        return injector

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every process (genesis checkpoints, first timers,
        workload streams).  Idempotent."""
        if self._started:
            return
        self._started = True
        self.msg_ids.reset()
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
                    self.sw_recovery, self.view, *self.injectors]
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
