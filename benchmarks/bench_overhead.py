"""Performance cost and dependability gain — the paper's "keeping the
performance cost low" claim and its stated follow-up quantification,
measured.

Prints (a) the per-scheme overhead table (blocking time, storage
traffic, protocol messages) on an identical fault-free workload, and
(b) model-vs-measured goodput under a hardware fault load, showing the
coordination's dependability gain over write-through.
"""

from repro.analysis.dependability import (
    FaultLoad,
    goodput,
    goodput_comparison,
    measure_goodput,
)
from repro.analysis.model import ModelParams
from repro.app.faults import HardwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.experiments.overhead import OverheadConfig, format_overhead, run_overhead
from repro.experiments.reporting import format_table
from repro.sim.rng import RngRegistry
from repro.tb.blocking import TbConfig


def test_overhead_comparison(bench_once):
    profiles = bench_once(run_overhead, OverheadConfig())
    print()
    print(format_overhead(profiles))
    observations = {profile.scheme: profile for profile in profiles}
    coordinated = observations["coordinated"]
    mdcd_only = observations["mdcd-only"]
    naive = observations["naive"]
    # The paper's cost claims, as assertions:
    # blocking stays a small fraction of process time;
    assert coordinated.blocked_time_fraction < 0.01
    # the modified protocol checkpoints *less* often than the original
    # (Type-2 establishment eliminated);
    assert coordinated.volatile_saves_per_hour < mdcd_only.volatile_saves_per_hour
    # coordination adds no blocking beyond the TB protocol it adapts
    # (tau(1) exceeds tau(0) by only t_max + t_min);
    assert coordinated.blocked_time_fraction < 2.0 * naive.blocked_time_fraction
    # and no additional coordination messages exist at all — the
    # notification traffic is identical across schemes.
    assert coordinated.notifications_per_app_message == \
        mdcd_only.notifications_per_app_message
    assert coordinated.at_runs == mdcd_only.at_runs


def _measured_goodput(scheme: Scheme, horizon: float = 30_000.0) -> float:
    system = build_system(SystemConfig(
        scheme=scheme, seed=91, horizon=horizon,
        tb=TbConfig(interval=6.0),
        workload1=WorkloadConfig(internal_rate=0.001, external_rate=0.01,
                                 step_rate=0.01, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.001, external_rate=0.002,
                                 step_rate=0.01, horizon=horizon),
        trace_enabled=False))
    rng = RngRegistry(91).stream("bench.goodput.crashes")
    t = rng.expovariate(1.0 / 400.0)
    while t < horizon * 0.95:
        system.inject_crash(HardwareFaultPlan(
            node_id=rng.choice(["N1a", "N1b", "N2"]), crash_at=t,
            repair_time=5.0))
        t += max(50.0, rng.expovariate(1.0 / 400.0))
    system.run()
    return measure_goodput(system, horizon)


def test_dependability_gain(bench_once):
    params = ModelParams(internal_rate1=0.001, external_rate1=0.01,
                         internal_rate2=0.001, external_rate2=0.002,
                         tb_interval=6.0)
    load = FaultLoad(hw_rate=1.0 / 400.0, repair_time=5.0)
    predicted = goodput_comparison(params, load)

    measured_co = bench_once(_measured_goodput, Scheme.COORDINATED)
    measured_wt = _measured_goodput(Scheme.WRITE_THROUGH)

    print()
    print(format_table(
        ["scheme", "model goodput", "measured goodput"],
        [["coordinated", f"{predicted['coordinated']:.4f}", f"{measured_co:.4f}"],
         ["write-through", f"{predicted['write-through']:.4f}", f"{measured_wt:.4f}"]],
        title="Dependability: surviving-work fraction under a hardware "
              "fault load (1 crash / ~400 s, 5 s repair)"))
    # Coordination loses visibly less work.
    assert measured_co > measured_wt
    assert predicted["coordinated"] > predicted["write-through"]
    # Model and measurement agree to a few percent.
    assert abs(measured_co - predicted["coordinated"]) < 0.05
    assert abs(measured_wt - predicted["write-through"]) < 0.08
