"""Executable reproductions of the paper's illustrative figures.

Each ``figure*`` function builds the exact situation a figure depicts,
runs it, and returns a :class:`ScenarioResult` whose ``passed`` flag
says whether the paper's claim held:

* **Figure 1** — the original MDCD volatile-checkpoint pattern: Type-1
  and Type-2 checkpoints strictly alternate on high-confidence
  processes; ``P1_act`` never checkpoints.
* **Figure 2** — the original TB protocol violates consistency and
  recoverability *without* its blocking period, and satisfies both with
  it.
* **Figure 3** — the modified MDCD pattern: pseudo checkpoints appear
  on ``P1_act``, Type-2 checkpoints are gone.
* **Figure 4(a)** — the naive MDCD+TB combination loses ``P2``'s
  non-contaminated state: after a hardware fault followed by a software
  error the contamination is unrecoverable; the coordinated scheme
  recovers cleanly from the identical fault sequence.
* **Figure 4(b)** — with the mid-blocking content swap disabled, an
  in-transit "passed AT" notification leaves the stable line
  inconsistent/unrestorable; with the swap (Figure 6(b)) the line is
  clean.
* **Figure 6** — across every stable line the coordinated scheme
  establishes, validity-concerned consistency and recoverability hold,
  with all content cases (current state / volatile copy / swapped)
  exercised.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..analysis.global_state import stable_line, stable_lines
from ..analysis.invariants import Violation, check_line, check_system_line, summarize_violations
from ..app.component import ApplicationComponent
from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from ..app.versions import HighConfidenceVersion
from ..app.workload import Action, ActionKind, WorkloadConfig, WorkloadDriver, generate_actions
from ..coordination.scheme import Scheme, System, SystemConfig, build_system
from ..host import FtProcess, IncarnationCounter
from ..sim.clock import ClockConfig
from ..sim.events import EventPriority
from ..sim.kernel import Simulator
from ..sim.network import Network, NetworkConfig
from ..sim.node import Node
from ..sim.rng import RngRegistry
from ..sim.trace import TraceRecorder
from ..tb.blocking import TbConfig
from ..tb.hardware_recovery import HardwareRecoveryCoordinator
from ..tb.original import OriginalTbEngine
from ..types import NodeId, ProcessId, Role


@dataclasses.dataclass
class ScenarioResult:
    """Outcome of one figure reproduction."""

    name: str
    passed: bool
    details: str
    data: Dict = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "OK " if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.details}"


def _manual_action(stimulus: int = 7, kind: ActionKind = ActionKind.SEND_INTERNAL,
                   index: int = 10_000_000) -> Action:
    """A synthetic workload action for manually-driven scenarios."""
    return Action(index=index, kind=kind, gap=0.0, stimulus=stimulus)


# ---------------------------------------------------------------------------
# Figure 1 / Figure 3 — checkpoint patterns
# ---------------------------------------------------------------------------
def _checkpoint_sequence(system: System, process_id: str) -> List[str]:
    kinds = []
    for rec in system.trace.records("checkpoint.volatile"):
        if str(rec.process) == process_id:
            kinds.append(rec.category.rsplit(".", 1)[-1])
    return kinds


def _alternates(kinds: List[str], first: str, second: str) -> bool:
    expected = first
    for kind in kinds:
        if kind != expected:
            return False
        expected = second if expected == first else first
    return True


def figure1_checkpoint_pattern(seed: int = 11, horizon: float = 6000.0) -> ScenarioResult:
    """Original MDCD: Type-1/Type-2 alternation, no active checkpoints."""
    system = build_system(SystemConfig(
        scheme=Scheme.MDCD_ONLY, seed=seed, horizon=horizon,
        workload1=WorkloadConfig(internal_rate=0.02, external_rate=0.004,
                                 step_rate=0.01, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.01, external_rate=0.004,
                                 step_rate=0.01, horizon=horizon)))
    system.run()
    seq_act = _checkpoint_sequence(system, Role.ACTIVE_1.value)
    seq_sdw = _checkpoint_sequence(system, Role.SHADOW_1.value)
    seq_p2 = _checkpoint_sequence(system, Role.PEER_2.value)
    ok = (not seq_act
          and len(seq_p2) >= 4 and _alternates(seq_p2, "type-1", "type-2")
          and len(seq_sdw) >= 4 and _alternates(seq_sdw, "type-1", "type-2"))
    return ScenarioResult(
        name="Figure 1 (original MDCD checkpoint pattern)", passed=ok,
        details=(f"P1_act checkpoints={len(seq_act)} (expected 0); "
                 f"P2 sequence alternates Type-1/Type-2: "
                 f"{_alternates(seq_p2, 'type-1', 'type-2')} over {len(seq_p2)}; "
                 f"P1_sdw alternates: {_alternates(seq_sdw, 'type-1', 'type-2')} "
                 f"over {len(seq_sdw)}"),
        data={"P1_act": seq_act, "P1_sdw": seq_sdw, "P2": seq_p2,
              "system": system})


def figure3_modified_pattern(seed: int = 11, horizon: float = 6000.0) -> ScenarioResult:
    """Modified MDCD: pseudo checkpoints on P1_act, Type-2 eliminated."""
    system = build_system(SystemConfig(
        scheme=Scheme.COORDINATED, seed=seed, horizon=horizon,
        tb=TbConfig(interval=120.0),
        workload1=WorkloadConfig(internal_rate=0.02, external_rate=0.004,
                                 step_rate=0.01, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.01, external_rate=0.004,
                                 step_rate=0.01, horizon=horizon)))
    system.run()
    seq_act = _checkpoint_sequence(system, Role.ACTIVE_1.value)
    seq_sdw = _checkpoint_sequence(system, Role.SHADOW_1.value)
    seq_p2 = _checkpoint_sequence(system, Role.PEER_2.value)
    no_type2 = all("type-2" not in s for s in (seq_act, seq_sdw, seq_p2))
    ok = (no_type2 and seq_act and all(k == "pseudo" for k in seq_act)
          and seq_p2 and all(k == "type-1" for k in seq_p2))
    return ScenarioResult(
        name="Figure 3 (modified MDCD checkpoint pattern)", passed=ok,
        details=(f"pseudo checkpoints on P1_act: {len(seq_act)}; "
                 f"Type-2 anywhere: {not no_type2}; "
                 f"P2 Type-1 count: {len(seq_p2)}"),
        data={"P1_act": seq_act, "P1_sdw": seq_sdw, "P2": seq_p2,
              "system": system})


# ---------------------------------------------------------------------------
# Figure 2 — TB blocking necessity (two plain processes)
# ---------------------------------------------------------------------------
class PairSystem:
    """Two plain processes exchanging messages under the original TB
    protocol — the paper's Fig. 2 setting (no MDCD involved)."""

    def __init__(self, seed: int, tb: TbConfig, clock: ClockConfig,
                 net: NetworkConfig, message_rate: float, horizon: float,
                 stable_history: int = 1000) -> None:
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder()
        self.network = Network(self.sim, net, self.rng)
        self.incarnation = IncarnationCounter()
        self.horizon = horizon
        workload = WorkloadConfig(internal_rate=message_rate, external_rate=0.0,
                                  step_rate=message_rate / 10.0, horizon=horizon)
        self.processes: List[FtProcess] = []
        for name in ("Pa", "Pb"):
            node = Node(NodeId(f"N_{name}"), self.sim, clock, self.rng,
                        stable_history=stable_history)
            actions = generate_actions(workload, self.rng, f"pair.{name}")
            proc = FtProcess(ProcessId(name), node, self.network,
                             ApplicationComponent(name, HighConfidenceVersion(name)),
                             WorkloadDriver(self.sim, actions, name),
                             self.incarnation, role=None, trace=self.trace)
            engine = OriginalTbEngine(proc, tb, clock, net)
            proc.attach_engines(software=None, hardware=engine)
            self.processes.append(proc)
        self.processes[0].default_peers = [self.processes[1].process_id]
        self.processes[1].default_peers = [self.processes[0].process_id]
        self.coordinator = HardwareRecoveryCoordinator(
            self.processes, self.incarnation, self.trace)
        self.coordinator.install()

    def process_list(self) -> List[FtProcess]:
        """Both processes."""
        return self.processes

    def run(self) -> None:
        """Start the pair and run to the horizon."""
        for proc in self.processes:
            proc.start()
        self.sim.run(until=self.horizon)

    def check_all_epochs(self) -> Tuple[int, List[Violation]]:
        """Check every common epoch line; returns (lines checked, violations)."""
        lines = 0
        violations: List[Violation] = []
        for line in stable_lines(self):
            lines += 1
            violations.extend(check_line(line, include_ground_truth=False))
        return lines, violations


def figure2_tb_blocking(seed: int = 3, horizon: float = 400.0) -> ScenarioResult:
    """The original TB protocol's two mechanisms, each shown necessary.

    Three configurations over identical workloads:

    1. no blocking, no unacked-saving — both consistency (orphan
       messages straddling skewed checkpoint instants) and
       recoverability (in-transit messages) are violated, the paper's
       Fig. 2(a);
    2. blocking on, no unacked-saving — consistency holds but in-transit
       messages remain unrestorable: blocking alone buys only
       consistency (why Neves-Fuchs do not block for recoverability);
    3. the full protocol — both properties hold, Fig. 2(b).
    """
    clock = ClockConfig(delta=0.5, rho=1e-6)
    net = NetworkConfig(t_min=0.005, t_max=0.02)
    outcomes = {}
    for label, blocking, save_unacked in (("neither", False, False),
                                          ("blocking-only", True, False),
                                          ("full", True, True)):
        tb = TbConfig(interval=5.0, blocking_enabled=blocking,
                      save_unacked=save_unacked)
        pair = PairSystem(seed=seed, tb=tb, clock=clock, net=net,
                          message_rate=4.0, horizon=horizon)
        pair.run()
        lines, violations = pair.check_all_epochs()
        outcomes[label] = (lines, summarize_violations(violations))
    neither = outcomes["neither"][1]
    blocking_only = outcomes["blocking-only"][1]
    full_lines, full = outcomes["full"]
    ok = (neither.get("orphan-message", 0) > 0
          and neither.get("unrestorable-message", 0) > 0
          and blocking_only.get("orphan-message", 0) == 0
          and blocking_only.get("unrestorable-message", 0) > 0
          and not full and full_lines > 10)
    return ScenarioResult(
        name="Figure 2 (TB blocking and unacked-saving necessity)", passed=ok,
        details=(f"neither mechanism: {neither}; blocking only: "
                 f"{blocking_only}; full protocol: {full or 'clean'} over "
                 f"{full_lines} lines"),
        data=outcomes)


# ---------------------------------------------------------------------------
# Figure 4(a) — naive combination loses the non-contaminated state
# ---------------------------------------------------------------------------
def figure4a_naive_loss(seed: int = 13, horizon: float = 2500.0) -> ScenarioResult:
    """The same fault sequence (software fault activation, then a crash
    of P2's node, then a detected software error) under the naive
    combination and under the coordinated scheme."""
    def run(scheme: Scheme) -> System:
        system = build_system(SystemConfig(
            scheme=scheme, seed=seed, horizon=horizon,
            tb=TbConfig(interval=60.0),
            workload1=WorkloadConfig(internal_rate=0.05, external_rate=0.002,
                                     step_rate=0.02, horizon=horizon),
            workload2=WorkloadConfig(internal_rate=0.02, external_rate=0.001,
                                     step_rate=0.02, horizon=horizon)))
        system.inject_software_fault(SoftwareFaultPlan(activate_at=100.0))
        system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=400.0,
                                              repair_time=2.0))
        system.run()
        return system

    naive = run(Scheme.NAIVE)
    coordinated = run(Scheme.COORDINATED)
    naive_corrupt = naive.peer.component.state.corrupt
    coord_corrupt = coordinated.peer.component.state.corrupt
    naive_degraded = naive.trace.count("recovery.degraded_fallback") > 0
    both_detected = bool(naive.sw_recovery.completed
                         and coordinated.sw_recovery.completed)
    ok = (both_detected and naive_corrupt and naive_degraded
          and not coord_corrupt
          and not coordinated.shadow.component.state.corrupt)
    return ScenarioResult(
        name="Figure 4(a) (naive combination loses non-contaminated state)",
        passed=ok,
        details=(f"software error detected in both: {both_detected}; "
                 f"naive P2 still contaminated: {naive_corrupt} "
                 f"(degraded rollback fallback: {naive_degraded}); "
                 f"coordinated P2 contaminated: {coord_corrupt}"),
        data={"naive_counters": naive.peer.counters.as_dict(),
              "coordinated_counters": coordinated.peer.counters.as_dict()})


# ---------------------------------------------------------------------------
# Figure 4(b) / 6(b) — in-transit "passed AT" vs the mid-blocking swap
# ---------------------------------------------------------------------------
def _run_in_transit_case(swap: bool, seed: int) -> Optional[Tuple[bool, Dict]]:
    """Build the Fig. 4(b) interleaving: P2 passes an AT after the
    shadow's checkpointing timer expired but before its own.  Returns
    (line_clean, info) or None if this seed's clock draw did not produce
    the required timer order."""
    horizon = 40.0
    config = SystemConfig(
        scheme=Scheme.COORDINATED if swap else Scheme.COORDINATED_NO_SWAP,
        seed=seed, horizon=horizon,
        clock=ClockConfig(delta=0.4, rho=1e-6),
        network=NetworkConfig(t_min=0.02, t_max=0.1),
        tb=TbConfig(interval=10.0),
        workload1=WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                                 step_rate=0.01, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=1e-9, external_rate=1e-9,
                                 step_rate=0.01, horizon=horizon),
        stable_history=100)
    system = build_system(config)
    system.start()
    sim = system.sim
    active, shadow, peer = system.active, system.shadow, system.peer

    # t=1: P1_act sends an internal message -> P2 becomes dirty.
    sim.schedule_at(1.0, lambda: active.software.on_send_internal(_manual_action(3)),
                    priority=EventPriority.ACTION, label="scn:act-int")
    # t=2: P2 sends an internal message while dirty -> the shadow (and
    # P1_act) receive a dirty-flagged message; the shadow becomes dirty.
    sim.schedule_at(2.0, lambda: peer.software.on_send_internal(_manual_action(4)),
                    priority=EventPriority.ACTION, label="scn:p2-int")

    # Around t=10 the checkpointing timers expire (skewed by up to
    # delta).  Poll for the Fig. 4(b) window: the shadow is blocking for
    # epoch 1 while P2 has not yet begun its own establishment; then P2
    # passes an AT, putting a "passed AT" notification in transit.
    fired = {"done": False}

    def poll():
        if fired["done"]:
            return
        shadow_pending = shadow.hardware._pending
        if (shadow_pending is not None and shadow_pending.epoch == 1
                and peer.hardware.ndc == 0 and not peer.hardware.in_blocking
                and peer.mdcd.dirty_bit == 1):
            fired["done"] = True
            peer.software.on_send_external(
                _manual_action(5, kind=ActionKind.SEND_EXTERNAL))
            return
        if sim.now < 12.5:
            sim.schedule_after(0.005, poll, priority=EventPriority.CONTROL,
                               label="scn:poll")

    sim.schedule_at(9.0, poll, priority=EventPriority.CONTROL, label="scn:poll0")
    system.run(until=horizon)
    if not fired["done"]:
        return None
    line = stable_line(system, epoch=1)
    if len(line) < 3:
        return None
    violations = check_system_line(line, include_ground_truth=False)
    info = {
        "violations": summarize_violations(violations),
        "shadow_content": line[shadow.process_id].meta,
        "swapped": system.trace.count("tb.establish.done") and any(
            rec.data.get("swapped") for rec in
            system.trace.records("tb.establish.done", shadow.process_id)),
    }
    return (len(violations) == 0, info)


def figure4b_in_transit_notification(max_seeds: int = 40) -> ScenarioResult:
    """Find a clock draw exhibiting the Fig. 4(b) window, then compare
    swap-disabled (violation expected) against swap-enabled (clean)."""
    for seed in range(max_seeds):
        no_swap = _run_in_transit_case(swap=False, seed=seed)
        if no_swap is None:
            continue
        clean_no_swap, info_off = no_swap
        if clean_no_swap:
            # The window occurred but produced no violation (e.g. the
            # notification landed before the shadow's expiry); keep
            # searching for a violating draw.
            continue
        with_swap = _run_in_transit_case(swap=True, seed=seed)
        if with_swap is None:
            continue
        clean_swap, info_on = with_swap
        ok = (not clean_no_swap) and clean_swap and bool(info_on.get("swapped"))
        return ScenarioResult(
            name="Figure 4(b)/6(b) (in-transit passed-AT vs mid-blocking swap)",
            passed=ok,
            details=(f"seed {seed}: swap disabled -> violations "
                     f"{info_off['violations']}; swap enabled -> clean line, "
                     f"content swapped: {info_on.get('swapped')}"),
            data={"seed": seed, "off": info_off, "on": info_on})
    return ScenarioResult(
        name="Figure 4(b)/6(b) (in-transit passed-AT vs mid-blocking swap)",
        passed=False,
        details=f"no seed in 0..{max_seeds - 1} produced the Fig. 4(b) window",
        data={})


# ---------------------------------------------------------------------------
# Figure 6 — every coordinated stable line is valid
# ---------------------------------------------------------------------------
def figure6_coordination_cases(seed: int = 29, horizon: float = 4000.0) -> ScenarioResult:
    """Audit every stable line the coordinated scheme establishes and
    tally the checkpoint-content cases of paper Fig. 6."""
    system = build_system(SystemConfig(
        scheme=Scheme.COORDINATED, seed=seed, horizon=horizon,
        tb=TbConfig(interval=40.0),
        workload1=WorkloadConfig(internal_rate=0.05, external_rate=0.01,
                                 step_rate=0.02, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.03, external_rate=0.01,
                                 step_rate=0.02, horizon=horizon),
        stable_history=1000))
    system.run()
    violations: List[Violation] = []
    content_counts: Dict[str, int] = {}
    lines_checked = 0
    for line in stable_lines(system):
        lines_checked += 1
        violations.extend(check_system_line(line, include_ground_truth=True))
        for view in line.values():
            if view.content is not None and view.epoch > 0:
                content_counts[view.content] = \
                    content_counts.get(view.content, 0) + 1
    ok = (lines_checked > 20 and not violations
          and content_counts.get("current-state", 0) > 0
          and content_counts.get("volatile-copy", 0) > 0)
    return ScenarioResult(
        name="Figure 6 (coordinated stable lines satisfy the properties)",
        passed=ok,
        details=(f"{lines_checked} lines checked, {len(violations)} violations "
                 f"({summarize_violations(violations)}); content cases: "
                 f"{content_counts}"),
        data={"contents": content_counts})


def run_all_scenarios() -> List[ScenarioResult]:
    """Every figure reproduction, in paper order."""
    return [
        figure1_checkpoint_pattern(),
        figure2_tb_blocking(),
        figure3_modified_pattern(),
        figure4a_naive_loss(),
        figure4b_in_transit_notification(),
        figure6_coordination_cases(),
    ]
