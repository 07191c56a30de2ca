"""The discrete-event backend for scripted cross-backend workloads.

``SimBackend`` wraps the existing :class:`~repro.coordination.scheme.System`
(which already runs entirely on the runtime ports — the sim adapters)
and drives it with a :class:`~repro.runtime.script.WorkloadScript`:
advance the kernel one quiet step, inject the op, repeat.  The TB
interval is parked far beyond the script duration so establishments
happen only at scripted ``tb-round`` ops, and the Poisson workload
rates are near-zero so the action streams stay empty — the script is
the entire workload, exactly as on the live backend.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, SystemConfig, build_system
from ..tb.blocking import TbConfig
from .decisions import decisions_from_trace
from .script import ScriptOp, WorkloadScript, member_targets

#: TB interval used by scripted runs on BOTH backends: long enough that
#: the periodic timer never fires on its own within a scripted run.
SCRIPTED_TB_INTERVAL = 10_000.0

#: Workload horizon of scripted runs on both backends.
SCRIPTED_HORIZON = 1_000.0

#: Near-zero Poisson rate (the config forbids all-zero rates); the
#: first generated arrival lands ~1e12 seconds out.
_IDLE_RATE = 1e-12

#: Sim-time advanced between barriers — ample for every in-flight
#: message, ack, and blocking period of one op to drain.
STEP_SECONDS = 5.0


def scripted_config(seed: int = 0, horizon: float = SCRIPTED_HORIZON,
                    topology: str = "paper",
                    tb_interval: float = SCRIPTED_TB_INTERVAL
                    ) -> SystemConfig:
    """The system configuration scripted runs use on both backends.

    The sim builds its system and every live agent its member from it
    (through :mod:`repro.coordination.wiring`); only the substrate parts
    (delays, drift) legitimately differ.  The live demo lowers
    ``tb_interval`` so its periodic rounds fire.
    """
    idle = WorkloadConfig(internal_rate=_IDLE_RATE, external_rate=_IDLE_RATE,
                          step_rate=_IDLE_RATE, horizon=horizon)
    return SystemConfig(
        scheme=Scheme.COORDINATED, seed=seed, horizon=horizon,
        tb=TbConfig(interval=tb_interval),
        workload1=idle, workload2=idle,
        trace_enabled=True,
        topology=topology,
    )


class SimBackend:
    """Run a scripted workload on the discrete-event substrate."""

    name = "sim"

    def __init__(self, seed: int = 0, step: float = STEP_SECONDS,
                 topology: str = "paper") -> None:
        self.step = step
        self.system = build_system(scripted_config(seed=seed,
                                                   topology=topology))

    # ------------------------------------------------------------------
    def run_script(self, script: WorkloadScript) -> Dict[str, List[Dict[str, Any]]]:
        """Execute the script and return per-process decision traces."""
        system = self.system
        system.start()
        now = 0.0
        for sequence, op in script.numbered():
            now += self.step
            system.sim.run(until=now)
            self._apply(op, sequence)
        system.sim.run(until=now + self.step)
        return decisions_from_trace(system.trace)

    # ------------------------------------------------------------------
    def _apply(self, op: ScriptOp, sequence: int) -> None:
        if op.op == "settle":
            return
        if op.op == "tb-round":
            for process in self.system.process_list():
                if process.hardware is not None:
                    process.hardware.trigger_round()
            return
        if op.op == "crash":
            self.system.nodes[op.target].crash()
            return
        if op.op == "restart":
            # Node.restart notifies the hardware recovery coordinator,
            # which rolls every in-service process to the recovery line.
            self.system.nodes[op.target].restart()
            return
        action = op.action(sequence)
        for member_id in member_targets(op.target, self.system.topology):
            process = self.system.members[member_id]
            if process.deposed or process.node.crashed:
                continue
            process.perform_action(action)
