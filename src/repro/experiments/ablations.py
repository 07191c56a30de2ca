"""Ablation studies of the coordination scheme's design choices.

DESIGN.md calls out four load-bearing mechanisms; each ablation removes
one and measures the damage, plus a fifth study that maps the regime
boundary of the Figure 7 result:

1. **Mid-blocking content swap** (paper Fig. 4(b)) — without it, an
   in-transit "passed AT" notification leaves stable lines invalid.
2. **``Ndc`` gating of "passed AT" handling** — without it, a
   notification from a process that already completed its establishment
   can flip a dirty bit at the wrong epoch.
3. **Blocking period** (paper Fig. 2(a)) — without it, consistency
   breaks.
4. **Acceptance-test coverage** — below 1.0, the protocol's dirty-bit
   view under-approximates ground truth and contamination survives.
5. **Dirty-fraction regime** — the E[D_wt]/E[D_co] gap erodes as the
   internal message rate approaches the validation rate (``f_d -> 1``),
   locating the crossover the closed-form model predicts.
6. **Checkpoint interval** — ``E[D_co]``'s ``Delta/2`` term against the
   stable-write frequency it costs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..analysis.global_state import common_stable_line, stable_line
from ..analysis.invariants import check_ground_truth, check_system_line, summarize_violations
from ..analysis.model import ModelParams, expected_rollback_coordinated, \
    expected_rollback_write_through
from ..app.acceptance import AcceptanceTestConfig
from ..app.faults import SoftwareFaultPlan
from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, SystemConfig, build_system
from ..tb.blocking import TbConfig
from ..types import Role
from .figure7 import Figure7Config, run_point
from .reporting import format_table
from .scenarios import _run_in_transit_case


@dataclasses.dataclass
class AblationRow:
    """One configuration's outcome in an ablation sweep."""

    label: str
    metrics: Dict[str, object]


def ablate_swap(max_seeds: int = 40) -> List[AblationRow]:
    """Mechanism 1: the mid-blocking swap, over every clock draw that
    produces the Fig. 4(b) window."""
    rows: List[AblationRow] = []
    windows = violations_off = violations_on = 0
    for seed in range(max_seeds):
        off = _run_in_transit_case(swap=False, seed=seed)
        if off is None:
            continue
        on = _run_in_transit_case(swap=True, seed=seed)
        if on is None:
            continue
        windows += 1
        if not off[0]:
            violations_off += 1
        if not on[0]:
            violations_on += 1
    rows.append(AblationRow("swap disabled",
                            {"fig4b windows": windows,
                             "invalid lines": violations_off}))
    rows.append(AblationRow("swap enabled",
                            {"fig4b windows": windows,
                             "invalid lines": violations_on}))
    return rows


def ablate_ndc_gating(seeds: int = 6, horizon: float = 4000.0) -> List[AblationRow]:
    """Mechanism 2: the epoch gate on "passed AT" notifications.

    With gating off, every stable line of every seed is audited; the
    wrong-epoch dirty-bit resets show up as validity violations and as
    content swaps triggered by already-completed establishments.
    """
    rows: List[AblationRow] = []
    for gating in (True, False):
        total_lines = 0
        violations: Dict[str, int] = {}
        mismatches = 0
        for seed in range(seeds):
            system = build_system(SystemConfig(
                scheme=Scheme.COORDINATED, seed=seed, horizon=horizon,
                clock=dataclasses.replace(SystemConfig().clock, delta=0.3),
                tb=TbConfig(interval=10.0),
                workload1=WorkloadConfig(internal_rate=1.0, external_rate=0.3,
                                         step_rate=0.01, horizon=horizon),
                workload2=WorkloadConfig(internal_rate=0.5, external_rate=0.3,
                                         step_rate=0.01, horizon=horizon),
                stable_history=1000))
            if not gating:
                for proc in system.process_list():
                    proc.software.ndc_gating = False
            system.run()
            common = None
            for proc in system.process_list():
                epochs = set(proc.node.stable.epochs(proc.process_id))
                common = epochs if common is None else common & epochs
            for epoch in sorted(common or ()):
                line = stable_line(system, epoch=epoch)
                if len(line) < 3:
                    continue
                total_lines += 1
                for v in check_system_line(line):
                    violations[v.kind] = violations.get(v.kind, 0) + 1
            for proc in system.process_list():
                mismatches += proc.counters.get("passed_at.ndc_mismatch")
        rows.append(AblationRow(
            f"ndc gating {'on' if gating else 'off'}",
            {"lines": total_lines, "violations": violations or "none",
             "gated (mismatched-epoch) notifications": mismatches}))
    return rows


def ablate_blocking(seeds: int = 6, horizon: float = 2000.0) -> List[AblationRow]:
    """Mechanism 3: the blocking period, inside the full coordinated
    three-process system (the pair-system version is paper Fig. 2)."""
    rows: List[AblationRow] = []
    for blocking in (True, False):
        total_lines = 0
        violations: Dict[str, int] = {}
        for seed in range(seeds):
            system = build_system(SystemConfig(
                scheme=Scheme.COORDINATED, seed=seed, horizon=horizon,
                clock=dataclasses.replace(SystemConfig().clock, delta=0.3),
                tb=TbConfig(interval=10.0, blocking_enabled=blocking),
                workload1=WorkloadConfig(internal_rate=1.0, external_rate=0.2,
                                         step_rate=0.01, horizon=horizon),
                workload2=WorkloadConfig(internal_rate=0.5, external_rate=0.2,
                                         step_rate=0.01, horizon=horizon),
                stable_history=1000))
            system.run()
            common = None
            for proc in system.process_list():
                epochs = set(proc.node.stable.epochs(proc.process_id))
                common = epochs if common is None else common & epochs
            for epoch in sorted(common or ()):
                line = stable_line(system, epoch=epoch)
                if len(line) < 3:
                    continue
                total_lines += 1
                for v in check_system_line(line, include_ground_truth=False):
                    violations[v.kind] = violations.get(v.kind, 0) + 1
        rows.append(AblationRow(
            f"blocking {'on' if blocking else 'off'}",
            {"lines": total_lines, "violations": violations or "none"}))
    return rows


def _at_coverage_cell(horizon: float, cell) -> Dict[str, bool]:
    """One (coverage, seed) run — module-level so worker processes can
    receive it via :func:`repro.parallel.parallel_map`."""
    coverage, seed = cell
    system = build_system(SystemConfig(
        scheme=Scheme.COORDINATED, seed=seed, horizon=horizon,
        at=AcceptanceTestConfig(coverage=coverage),
        tb=TbConfig(interval=30.0),
        workload1=WorkloadConfig(internal_rate=0.1, external_rate=0.02,
                                 step_rate=0.01, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.05, external_rate=0.02,
                                 step_rate=0.01, horizon=horizon)))
    system.inject_software_fault(SoftwareFaultPlan(activate_at=horizon / 4.0))
    system.run()
    from ..analysis.global_state import live_line
    return {"detected": bool(system.sw_recovery.completed),
            "contaminated": bool(check_ground_truth(live_line(system)))}


def ablate_at_coverage(coverages=(1.0, 0.9, 0.6, 0.3),
                       seeds: int = 5, horizon: float = 3000.0,
                       workers: Optional[int] = None) -> List[AblationRow]:
    """Mechanism 4: acceptance-test coverage.

    With imperfect coverage a corrupt external message can pass the AT,
    wrongly cleaning dirty bits: ground-truth audits of the live states
    catch the resulting undetected contamination.  The (coverage × seed)
    cells are independent runs and shard across ``workers``.
    """
    import functools
    from ..parallel.pool import parallel_map
    cells = [(coverage, seed) for coverage in coverages
             for seed in range(seeds)]
    outcomes = parallel_map(functools.partial(_at_coverage_cell, horizon),
                            cells, workers=workers)
    rows: List[AblationRow] = []
    for coverage in coverages:
        picked = [out for (cov, _), out in zip(cells, outcomes)
                  if cov == coverage]
        rows.append(AblationRow(
            f"coverage {coverage:.1f}",
            {"runs": seeds,
             "error detected (takeover)":
                 sum(1 for out in picked if out["detected"]),
             "undetected contamination in believed-clean state":
                 sum(1 for out in picked if out["contaminated"])}))
    return rows


def ablate_dirty_fraction(rate_multipliers=(1, 5, 20, 80, 300),
                          base: Optional[Figure7Config] = None,
                          workers: Optional[int] = None,
                          cache=None) -> List[AblationRow]:
    """Study 5: push the internal rate toward (and past) the validation
    rate; the measured and modelled E[D_wt]/E[D_co] gap collapses as
    ``f_d -> 1`` — the regime boundary of the paper's Fig. 7 claim."""
    config = base if base is not None else Figure7Config(
        horizon=15_000.0, replications=1)
    rows: List[AblationRow] = []
    for mult in rate_multipliers:
        rate = 100 * mult
        point = run_point(config, rate, workers=workers, cache=cache)
        params = ModelParams(
            internal_rate1=rate / config.rate_unit,
            external_rate1=config.external_rate,
            internal_rate2=config.internal_rate2,
            external_rate2=config.external_rate2,
            tb_interval=config.tb_interval)
        rows.append(AblationRow(
            f"lambda_int = {rate}/1e5 s",
            {"E[D_co]": round(point.e_d_co, 2),
             "E[D_wt]": round(point.e_d_wt, 2),
             "measured wt/co": round(point.measured_factor, 2),
             "model wt/co": round(
                 expected_rollback_write_through(params)
                 / expected_rollback_coordinated(params), 2)}))
    return rows


def ablate_interval(intervals=(2.0, 6.0, 12.0, 24.0),
                    base: Optional[Figure7Config] = None,
                    workers: Optional[int] = None,
                    cache=None) -> List[AblationRow]:
    """Study 6: the checkpoint interval Delta.

    The model says ``E[D_co] ~= Delta/2 + f_d/lambda_v``: halving the
    interval halves the periodic term at the cost of proportionally more
    stable writes.  The sweep measures both sides of that trade.
    """
    config = base if base is not None else Figure7Config(
        horizon=20_000.0, replications=2)
    rate = 100
    rows: List[AblationRow] = []
    for interval in intervals:
        cfg = dataclasses.replace(config, tb_interval=interval)
        point = run_point(cfg, rate, workers=workers, cache=cache)
        rows.append(AblationRow(
            f"Delta = {interval:g} s",
            {"E[D_co]": round(point.e_d_co, 2),
             "model E[D_co]": round(point.model_co, 2),
             "E[D_wt]": round(point.e_d_wt, 2),
             "stable saves/h (3 procs)": round(3 * 3600.0 / interval),
             "wt/co": round(point.measured_factor, 2)}))
    return rows


def format_ablation(title: str, rows: List[AblationRow]) -> str:
    """Render one ablation as a table."""
    keys: List[str] = []
    for row in rows:
        for key in row.metrics:
            if key not in keys:
                keys.append(key)
    table_rows = [[row.label] + [row.metrics.get(k, "") for k in keys]
                  for row in rows]
    return format_table(["configuration"] + keys, table_rows, title=title)
