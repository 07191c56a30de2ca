"""The GSU middleware runtime.

Hosts user :class:`~repro.middleware.logic.ComponentLogic` on the
paper's guarded three-process architecture with any protocol scheme —
by default the full coordination (modified MDCD + adapted TB).  The
runtime reuses the system builder's wiring (nodes, network, engines,
recovery managers) and replaces the synthetic workload with the user's
logic: a *primary* and a *secondary* implementation of component 1 run
as ``P1_act``/``P1_sdw`` under guard, and component 2 runs as ``P2``.

Typical use::

    runtime = GsuRuntime(MiddlewareConfig(seed=1))
    runtime.install_component_one(primary=NewController(),
                                  secondary=ProvenController(),
                                  tick_period=5.0)
    runtime.install_component_two(Telemetry(), tick_period=8.0)
    runtime.inject_design_fault(at=100.0)   # the upgrade's latent bug
    runtime.run(1_000.0)

Fidelity and limits (prototype middleware, matching the paper's status
for it): software-error recovery (shadow takeover) carries the full
MDCD guarantees; hardware recovery restores checkpointed user state and
re-sends unacknowledged messages, but — unlike the synthetic-workload
harness, which replays its action stream — user sends are regenerated
only insofar as the user's (deterministic, state-driven) tick logic
regenerates them, so handlers should tolerate duplicate or missing
deliveries across a hardware recovery.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from ..app.versions import HighConfidenceVersion, LowConfidenceVersion
from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, System, SystemConfig, build_system
from ..errors import ConfigurationError
from ..runtime import ClockConfig, EventPriority, NetworkConfig
from ..tb.blocking import TbConfig
from ..types import Role
from .logic import ComponentLogic, LogicComponent


@dataclasses.dataclass(frozen=True)
class MiddlewareConfig:
    """Runtime configuration (the protocol knobs of
    :class:`~repro.coordination.scheme.SystemConfig`, minus workload)."""

    scheme: Scheme = Scheme.COORDINATED
    seed: int = 0
    horizon: float = 100_000.0
    clock: ClockConfig = dataclasses.field(default_factory=ClockConfig)
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    tb: TbConfig = dataclasses.field(default_factory=TbConfig)
    trace_enabled: bool = True


class GsuRuntime:
    """Guarded-software-upgrading runtime for user component logic."""

    def __init__(self, config: MiddlewareConfig = MiddlewareConfig()) -> None:
        self.config = config
        # The underlying system provides nodes, network, engines and
        # recovery; its synthetic workload is configured to (near) zero
        # and the components are swapped for logic adapters below.
        idle = WorkloadConfig(internal_rate=1e-12, external_rate=1e-12,
                              step_rate=1e-12, horizon=config.horizon)
        self.system: System = build_system(SystemConfig(
            scheme=config.scheme, seed=config.seed, horizon=config.horizon,
            clock=config.clock, network=config.network, tb=config.tb,
            workload1=idle, workload2=idle,
            trace_enabled=config.trace_enabled))
        self.components: Dict[Role, LogicComponent] = {}
        self._tick_periods: Dict[str, float] = {}
        self._started = False

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install_component_one(self, primary: ComponentLogic,
                              secondary: ComponentLogic,
                              tick_period: Optional[float] = None) -> None:
        """Install the guarded component: ``primary`` runs as the
        low-confidence ``P1_act``, ``secondary`` as the high-confidence
        shadow.  They must implement the same protocol-visible
        behaviour (the shadow takes over on a detected error)."""
        self._install(Role.ACTIVE_1, primary, self.system.low_version)
        self._install(Role.SHADOW_1, secondary,
                      HighConfidenceVersion("component1-secondary"))
        if tick_period is not None:
            self._tick_periods["component1"] = tick_period

    def install_component_two(self, logic: ComponentLogic,
                              tick_period: Optional[float] = None) -> None:
        """Install the second (high-confidence) component as ``P2``."""
        self._install(Role.PEER_2, logic,
                      HighConfidenceVersion("component2"))
        if tick_period is not None:
            self._tick_periods["component2"] = tick_period

    def _install(self, role: Role, logic: ComponentLogic, version) -> None:
        process = self.system.processes[role]
        component = LogicComponent(f"{role.value}-logic", version, logic)
        component.bind(process)
        process.component = component
        self.components[role] = component

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def inject_design_fault(self, at: float,
                            until: Optional[float] = None) -> None:
        """Activate the primary's latent design fault at ``at``
        (optionally deactivating at ``until``)."""
        self.system.inject_software_fault(
            SoftwareFaultPlan(activate_at=at, deactivate_at=until))

    def inject_crash(self, node_id: str, at: float,
                     repair_time: float = 1.0) -> None:
        """Crash (and later restart) one of ``N1a``/``N1b``/``N2``."""
        self.system.inject_crash(HardwareFaultPlan(
            node_id=node_id, crash_at=at, repair_time=repair_time))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the protocols, deliver ``on_start``, arm tick loops."""
        if self._started:
            return
        missing = {Role.ACTIVE_1, Role.SHADOW_1, Role.PEER_2} - set(self.components)
        if missing:
            raise ConfigurationError(
                f"components not installed for roles: {sorted(r.value for r in missing)}")
        self._started = True
        # Deliver on_start BEFORE the protocols start: the genesis
        # stable checkpoints must capture the initialized user state, or
        # an early hardware recovery would restore a pre-init dict.
        for component in self.components.values():
            component.start()
        self.system.start()
        if "component1" in self._tick_periods:
            self._arm_tick(self._tick_periods["component1"],
                           [Role.ACTIVE_1, Role.SHADOW_1])
        if "component2" in self._tick_periods:
            self._arm_tick(self._tick_periods["component2"], [Role.PEER_2])

    def run(self, until: Optional[float] = None) -> None:
        """Start (if needed) and run the simulation."""
        self.start()
        self.system.run(until=until)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def in_service(self) -> List[LogicComponent]:
        """Components of in-service processes (excludes a deposed
        primary after takeover)."""
        return [c for c in self.components.values()
                if not c.process.deposed]

    def state_of(self, role: Role) -> Dict:
        """The (live) user state dict of one replica."""
        return self.components[role].state.data

    def takeover_happened(self) -> bool:
        """Whether the secondary has taken over the primary's role."""
        return bool(self.system.sw_recovery.completed)

    def commission_upgrade(self) -> None:
        """Declare the upgrade successful: the primary is trusted from
        now on, the escorting secondary retires, and the coordination
        disengages (the adapted TB protocol becomes equivalent to the
        original).  Typically called after a confidence-building period
        with no acceptance-test failures."""
        self.system.commission_upgrade()

    # ------------------------------------------------------------------
    def _arm_tick(self, period: float, roles: List[Role]) -> None:
        if period <= 0:
            raise ConfigurationError(f"tick period must be positive: {period}")
        sim = self.system.sim

        def fire() -> None:
            for role in roles:
                process = self.system.processes[role]
                if process.deposed or not process.alive:
                    continue
                process.component.tick()
            sim.schedule_after(period, fire, priority=EventPriority.ACTION,
                               label=f"tick:{roles[0].value}")

        sim.schedule_after(period, fire, priority=EventPriority.ACTION,
                           label=f"tick:{roles[0].value}")
