"""Figure 7 — expected rollback distance, coordination vs write-through.

The paper's headline quantitative result: over a sweep of the internal
message rate, the mean rollback distance a process suffers from a
hardware fault is *significantly* smaller under the protocol
coordination scheme (``E[D_co]``) than under the write-through approach
(``E[D_wt]``), shown on a log scale.

The paper omits its model's parameters ("due to space limitations, we
omit detailed discussion of the comparative study"), so the regime here
is chosen from the mechanism itself (see EXPERIMENTS.md for the
derivation):

* write-through establishes a stable checkpoint at *every validation
  event*, so ``E[D_wt] ~= 1/lambda_v`` — set by the external-message
  (AT) rate and flat in the internal rate;
* the coordinated scheme establishes every ``Delta`` seconds, rolling a
  dirty process back additionally over its current contamination span,
  so ``E[D_co] ~= Delta/2 + f_d / lambda_v`` with
  ``f_d = lambda_int / (lambda_int + lambda_v)``.

The coordination wins by a large factor exactly when processes are
*mostly clean* (``f_d`` well below 1, i.e. validations outpace internal
messages) and ``Delta`` is small against the validation gap; the sweep
runs in that regime, and the x-axis follows the paper (internal message
rate 60..200, here in messages per 1e5 seconds).  Both the discrete-
event measurement and the closed-form model are reported; an ablation
(:mod:`repro.experiments.ablations`) shows the predicted erosion of the
gap as ``f_d -> 1``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.cache import ResultCache

from ..analysis.model import (
    ModelParams,
    expected_rollback_coordinated,
    expected_rollback_write_through,
)
from ..app.faults import HardwareFaultPlan
from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, SystemConfig, build_system
from ..sim.rng import RngRegistry
from ..tb.blocking import TbConfig
from .reporting import format_table, log_series_bar
from .runner import run_campaign


@dataclasses.dataclass(frozen=True)
class Figure7Config:
    """Sweep parameters.

    ``internal_rates`` are the paper's x values; a value ``r`` means
    ``r / rate_unit`` internal messages per second.
    """

    internal_rates: Sequence[int] = (60, 80, 100, 120, 140, 160, 180, 200)
    rate_unit: float = 1e5
    external_rate: float = 0.01
    step_rate: float = 0.001
    internal_rate2: float = 0.001
    external_rate2: float = 0.002
    tb_interval: float = 6.0
    horizon: float = 40_000.0
    crash_rate: float = 1.0 / 500.0
    repair_time: float = 1.0
    replications: int = 3
    seed: int = 2001


@dataclasses.dataclass
class Figure7Point:
    """One x value of the figure."""

    internal_rate: int
    e_d_co: float
    ci_co: float
    n_co: int
    e_d_wt: float
    ci_wt: float
    n_wt: int
    model_co: float
    model_wt: float

    @property
    def measured_factor(self) -> float:
        """Measured E[D_wt] / E[D_co]."""
        return self.e_d_wt / self.e_d_co if self.e_d_co > 0 else float("inf")


def _system_config(config: Figure7Config, rate: int, scheme: Scheme,
                   seed: int) -> SystemConfig:
    return SystemConfig(
        scheme=scheme, seed=seed, horizon=config.horizon,
        tb=TbConfig(interval=config.tb_interval),
        workload1=WorkloadConfig(
            internal_rate=rate / config.rate_unit,
            external_rate=config.external_rate,
            step_rate=config.step_rate,
            horizon=config.horizon),
        workload2=WorkloadConfig(
            internal_rate=config.internal_rate2,
            external_rate=config.external_rate2,
            step_rate=config.step_rate,
            horizon=config.horizon),
        trace_enabled=False)


def _crash_plans(config: Figure7Config, seed: int) -> List[HardwareFaultPlan]:
    """A Poisson crash schedule shared by the paired schemes."""
    rng = RngRegistry(seed).stream("figure7.crashes")
    plans: List[HardwareFaultPlan] = []
    t = rng.expovariate(config.crash_rate)
    while t < config.horizon * 0.95:
        node = rng.choice(["N1a", "N1b", "N2"])
        plans.append(HardwareFaultPlan(node_id=node, crash_at=t,
                                       repair_time=config.repair_time))
        t += max(10.0 * config.repair_time, rng.expovariate(config.crash_rate))
    return plans


def _run_one(config: Figure7Config, rate: int, scheme: Scheme,
             seed: int) -> List[float]:
    system = build_system(_system_config(config, rate, scheme, seed))
    for plan in _crash_plans(config, seed):
        system.inject_crash(plan)
    system.run()
    assert system.hw_recovery is not None
    return system.hw_recovery.distances()


def run_point(config: Figure7Config, rate: int, *,
              workers: Optional[int] = None,
              cache: Optional["ResultCache"] = None) -> Figure7Point:
    """Measure one x value (both schemes, all replications) and attach
    the model predictions.

    Both schemes run under the same campaign label, so they draw the
    same replication seed list (the paired-comparison device) whether
    executed serially or sharded over ``workers`` processes; the cache
    fingerprint distinguishes them.
    """
    stats = {}
    for scheme in (Scheme.COORDINATED, Scheme.WRITE_THROUGH):
        fingerprint = ""
        if cache is not None:
            from ..parallel.cache import campaign_fingerprint
            # Replications are excluded: cells are keyed per replication
            # index, so growing a sweep reuses the cells it already has.
            fingerprint = campaign_fingerprint(
                {"experiment": "figure7",
                 "config": dataclasses.replace(config, replications=0),
                 "rate": rate, "scheme": scheme.value})
        stats[scheme] = run_campaign(
            f"fig7:r{rate}", config.seed, config.replications,
            functools.partial(_run_one, config, rate, scheme),
            workers=workers, cache=cache, fingerprint=fingerprint).stat
    params = ModelParams(
        internal_rate1=rate / config.rate_unit,
        external_rate1=config.external_rate,
        internal_rate2=config.internal_rate2,
        external_rate2=config.external_rate2,
        tb_interval=config.tb_interval)
    co, wt = stats[Scheme.COORDINATED], stats[Scheme.WRITE_THROUGH]
    return Figure7Point(
        internal_rate=rate,
        e_d_co=co.mean, ci_co=co.confidence_halfwidth(), n_co=co.count,
        e_d_wt=wt.mean, ci_wt=wt.confidence_halfwidth(), n_wt=wt.count,
        model_co=expected_rollback_coordinated(params),
        model_wt=expected_rollback_write_through(params))


def run_figure7(config: Figure7Config = Figure7Config(), *,
                workers: Optional[int] = None,
                cache: Optional["ResultCache"] = None) -> List[Figure7Point]:
    """The full sweep (optionally sharded over worker processes)."""
    return [run_point(config, rate, workers=workers, cache=cache)
            for rate in config.internal_rates]


def format_figure7(points: List[Figure7Point]) -> str:
    """The figure as a table plus a log-scale text plot."""
    rows = [[p.internal_rate, p.e_d_co, p.ci_co, p.e_d_wt, p.ci_wt,
             p.measured_factor, p.model_co, p.model_wt] for p in points]
    table = format_table(
        ["int.rate", "E[D_co]", "ci", "E[D_wt]", "ci", "wt/co",
         "model co", "model wt"],
        rows, title="Figure 7 — expected rollback distance (work-seconds)")
    lo = max(min(p.e_d_co for p in points) / 2.0, 0.1)
    hi = max(p.e_d_wt for p in points) * 2.0
    plot_lines = ["", "log-scale view (co='o', wt='x'):"]
    for p in points:
        plot_lines.append(
            f"  rate {p.internal_rate:>4}  co "
            f"{log_series_bar(p.e_d_co, lo, hi)}o ({p.e_d_co:.1f})")
        plot_lines.append(
            f"            wt {log_series_bar(p.e_d_wt, lo, hi)}x ({p.e_d_wt:.1f})")
    return table + "\n" + "\n".join(plot_lines)
