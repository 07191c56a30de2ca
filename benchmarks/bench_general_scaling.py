"""Scaling the coordination beyond the paper's three-process model.

The paper positions MDCD as "a general-purpose low-cost software fault
tolerance technique for distributed systems" whose architectural
restrictions its follow-up work removes.  This bench sweeps one guarded
component over the peer count ``K`` (``1x1+K`` memberships; ``K = 1``
is the paper shape) and measures that the coordination's guarantees and
costs survive the scale-up: every audited
stable line stays valid, hardware rollback distance stays set by the
checkpoint interval + contamination span (not by ``K``), and blocking
overhead stays negligible.
"""

import time

from repro.analysis import check_system_line
from repro.analysis.global_state import stable_line
from repro.app.faults import HardwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import SystemConfig, build_system
from repro.experiments.reporting import format_table
from repro.parallel.pool import default_worker_count, parallel_map
from repro.sim.monitor import RunningStat
from repro.tb.blocking import TbConfig


def run_scale_point(n_peers: int, horizon: float = 4000.0, seed: int = 17):
    config = SystemConfig(
        topology="paper" if n_peers == 1 else f"1x1+{n_peers}",
        seed=seed, horizon=horizon,
        tb=TbConfig(interval=30.0),
        workload1=WorkloadConfig(internal_rate=0.05, external_rate=0.01,
                                 step_rate=0.02, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.04, external_rate=0.01,
                                 step_rate=0.02, horizon=horizon),
        stable_history=300)
    system = build_system(config)
    peers = system.topology.peers()
    for k, at in enumerate((1200.0, 2400.0, 3600.0)):
        system.inject_crash(HardwareFaultPlan(
            node_id=peers[k % n_peers].node_id, crash_at=at,
            repair_time=1.0))
    system.run()

    distances = RunningStat()
    for d in system.hw_recovery.distances():
        distances.add(d)
    blocked = sum(rec.data["length"]
                  for rec in system.trace.records("blocking.start"))
    blocked_fraction = blocked / (horizon * len(system.process_list()))
    common = None
    for proc in system.process_list():
        epochs = set(proc.node.stable.epochs(proc.process_id))
        common = epochs if common is None else common & epochs
    lines = dirty_lines = 0
    for epoch in sorted(common or ()):
        line = stable_line(system, epoch=epoch)
        if len(line) < len(system.process_list()):
            continue
        lines += 1
        if check_system_line(line, topology=system.topology):
            dirty_lines += 1
    end_clean = all(not p.component.state.corrupt
                    for p in system.process_list())
    return {
        "K": n_peers,
        "processes": len(system.process_list()),
        "mean E[D] (work-s)": round(distances.mean, 1),
        "blocked time": f"{blocked_fraction * 100:.3f}%",
        "lines audited": lines,
        "lines with strict-view flags": dirty_lines,
        "end states clean": end_clean,
    }


def test_general_scaling(bench_once):
    sweep = (1, 2, 4, 8)
    started = time.perf_counter()
    points = [run_scale_point(k) for k in sweep]
    serial_wall = time.perf_counter() - started

    # The K-sweep re-run through the parallel map must reproduce the
    # serial sweep exactly (same seeds, same deterministic simulator)
    # while recording the wall-clock both ways.
    started = time.perf_counter()
    parallel_points = parallel_map(run_scale_point, list(sweep), workers=2)
    parallel_wall = time.perf_counter() - started
    assert parallel_points == points
    print()
    print(format_table(
        ["sweep", "serial s", "parallel s (2 workers)", "usable cpus"],
        [[str(sweep), f"{serial_wall:.2f}", f"{parallel_wall:.2f}",
          default_worker_count()]],
        title="K-sweep wall time — serial vs parallel_map"))

    bench_once(run_scale_point, 4)
    print()
    print(format_table(
        list(points[0].keys()), [list(p.values()) for p in points],
        title="Coordination at scale — K peers + guarded pair "
              "(3 crashes per run)"))
    print("\nStrict per-line view agreement under *overlapping global "
          "rollbacks* is an open corner of the K-peer generalization "
          "(the paper's extension [5] is unpublished): a dirty process's "
          "replay after a global rollback consumes post-recovery traffic, "
          "so regenerated messages can differ from the originals its "
          "peers retained.  Ground truth stays clean and recovery "
          "completes in every run; the flags are reported, not hidden.")
    for point in points:
        assert point["end states clean"]
        assert point["lines audited"] > 30
        # Rollback cost is set by the interval + contamination span, not
        # by the system size.
        assert point["mean E[D] (work-s)"] < 200.0
        assert float(point["blocked time"].rstrip("%")) < 1.0
        # Strict-view flags stay confined to a small fraction of lines.
        assert point["lines with strict-view flags"] <= 0.1 * point["lines audited"]
    # K = 1 is exactly the paper's model: fully strict even under crashes.
    assert points[0]["lines with strict-view flags"] == 0
    # Costs stay in the same band as the system grows.
    assert points[-1]["mean E[D] (work-s)"] < 4.0 * max(points[0]["mean E[D] (work-s)"], 25.0)
