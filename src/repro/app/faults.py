"""Fault injection.

Two fault classes drive every experiment in the paper:

* **Software design faults** — a latent defect in the low-confidence
  version that activates at an injected time (and may deactivate again,
  modelling an input-dependent bug).  Activation flips
  :attr:`~repro.app.versions.LowConfidenceVersion.fault_active`; the
  defect lives in code, so checkpoint rollback does not clear it.
* **Hardware faults** — fail-stop node crashes with a repair delay,
  after which the node restarts and the hardware-recovery procedure
  runs.

Injectors are plain schedulers over the simulation kernel; campaigns
configure them from seeded RNG streams so fault times are reproducible.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import ConfigurationError
from ..sim.events import EventPriority
from ..sim.kernel import Simulator
from ..sim.node import Node
from ..sim.trace import TraceRecorder
from ..types import FaultKind
from .versions import LowConfidenceVersion


@dataclasses.dataclass(frozen=True)
class SoftwareFaultPlan:
    """When the low-confidence version's defect manifests.

    ``activate_at`` — true time of activation; ``deactivate_at`` — if
    set, the defect stops manifesting then (a window of bad inputs).
    ``component`` — which guarded component's low-confidence version is
    defective (1 in the paper's single-component shape).
    """

    activate_at: float
    deactivate_at: Optional[float] = None
    component: int = 1

    def __post_init__(self) -> None:
        if self.activate_at < 0:
            raise ConfigurationError(f"activate_at must be >= 0: {self}")
        if self.deactivate_at is not None and self.deactivate_at <= self.activate_at:
            raise ConfigurationError(f"deactivate_at must follow activate_at: {self}")


class SoftwareFaultInjector:
    """Schedules (de)activation of a low-confidence version's defect."""

    def __init__(self, sim: Simulator, version: LowConfidenceVersion,
                 plan: SoftwareFaultPlan,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.sim = sim
        self.version = version
        self.plan = plan
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.activated = False

    def arm(self) -> None:
        """Schedule the planned activation (and deactivation)."""
        self.sim.schedule_at(self.plan.activate_at, self._activate,
                             priority=EventPriority.CONTROL,
                             label="fault:software:activate")
        if self.plan.deactivate_at is not None:
            self.sim.schedule_at(self.plan.deactivate_at, self._deactivate,
                                 priority=EventPriority.CONTROL,
                                 label="fault:software:deactivate")

    def _activate(self) -> None:
        self.version.fault_active = True
        self.activated = True
        self.trace.record(self.sim.now, "fault.software.activate", None,
                          kind=FaultKind.SOFTWARE_DESIGN.value,
                          version=self.version.name)

    def _deactivate(self) -> None:
        self.version.fault_active = False
        self.trace.record(self.sim.now, "fault.software.deactivate", None,
                          kind=FaultKind.SOFTWARE_DESIGN.value,
                          version=self.version.name)


@dataclasses.dataclass(frozen=True)
class HardwareFaultPlan:
    """A node crash at ``crash_at`` repaired after ``repair_time``."""

    node_id: str
    crash_at: float
    repair_time: float = 1.0

    def __post_init__(self) -> None:
        if self.crash_at < 0 or self.repair_time < 0:
            raise ConfigurationError(f"invalid hardware fault plan: {self}")


class HardwareFaultInjector:
    """Schedules fail-stop crashes and restarts for one node."""

    def __init__(self, sim: Simulator, node: Node, plan: HardwareFaultPlan,
                 trace: Optional[TraceRecorder] = None) -> None:
        if plan.node_id != str(node.node_id):
            raise ConfigurationError(
                f"plan targets {plan.node_id!r} but node is {node.node_id!r}")
        self.sim = sim
        self.node = node
        self.plan = plan
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    def arm(self) -> None:
        """Schedule the crash and the subsequent restart."""
        self.sim.schedule_at(self.plan.crash_at, self._crash,
                             priority=EventPriority.CONTROL,
                             label=f"fault:crash:{self.plan.node_id}")

    def _crash(self) -> None:
        self.trace.record(self.sim.now, "fault.crash", None,
                          kind=FaultKind.HARDWARE_CRASH.value,
                          node=str(self.node.node_id))
        self.node.crash()
        self.sim.schedule_after(self.plan.repair_time, self._restart,
                                priority=EventPriority.CONTROL,
                                label=f"fault:restart:{self.plan.node_id}")

    def _restart(self) -> None:
        self.trace.record(self.sim.now, "fault.restart", None,
                          node=str(self.node.node_id))
        self.node.restart()

