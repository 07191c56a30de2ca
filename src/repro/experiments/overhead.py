"""Performance cost of the schemes and of system size (the paper's
stated follow-up work: "quantifying its benefits with respect to both
dependability enhancement and performance cost reduction").

The paper argues twice that cost stays low — MDCD keeps checkpoints in
RAM and validates only external messages; the coordination "preserves
and enhances the features and advantages of the individual protocols
... keeping the performance cost low".  One harness measures the cost
profile of every (scheme, membership) cell on an identical fault-free
workload:

* **blocking** — fraction of process-time spent inside blocking windows
  and the number of sends deferred by them;
* **storage** — checkpoints and bytes written to volatile and stable
  storage per simulated hour, also broken down by checkpoint kind and
  snapshot section;
* **messaging** — protocol messages ("passed AT" notifications) per
  application message, and acceptance tests run.

Two tables read it: :func:`format_overhead` compares the schemes on the
paper's three processes (``repro overhead``), and
:func:`format_topology_sweep` follows the coordinated scheme over
growing memberships (``repro topology-sweep``; by default the paper's 3
processes, a 9-process ``2x2+3`` and a 25-process ``4x4+5``), where the
per-process columns are the scaling story.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Dict, List, Optional

from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, SystemConfig, build_system
from ..tb.blocking import TbConfig
from .reporting import format_table
from .runner import replication_seeds


@dataclasses.dataclass(frozen=True)
class OverheadConfig:
    """The cells to measure, on one workload identical across cells.

    ``replications`` > 1 repeats each cell's measurement over derived
    seeds (the same seed list for every cell) and reports the mean
    cost profile.
    """

    seed: int = 33
    horizon: float = 8_000.0
    replications: int = 1
    schemes: tuple = (Scheme.MDCD_ONLY, Scheme.WRITE_THROUGH,
                      Scheme.NAIVE, Scheme.COORDINATED)
    topologies: tuple = ("paper",)


#: ``repro topology-sweep``: the coordinated scheme over N ∈ {3, 9, 25}
#: OS-process-equivalents.
TOPOLOGY_SWEEP = OverheadConfig(horizon=4_000.0, schemes=(Scheme.COORDINATED,),
                                topologies=("paper", "2x2+3", "4x4+5"))


@dataclasses.dataclass
class CostProfile:
    """Measured cost profile of one scheme on one membership."""

    scheme: str
    topology: str
    processes: int
    components: int
    shadows: int
    peers: int
    blocked_time_fraction: float
    deferred_sends: int
    buffered_deliveries: int
    volatile_saves_per_hour: float
    volatile_kb_per_hour: float
    stable_saves_per_hour: float
    stable_kb_per_hour: float
    notifications: int
    notifications_per_app_message: float
    at_runs: int
    wall_seconds: float
    #: Checkpoint KiB/h by checkpoint kind (type-1/type-2/pseudo/
    #: stable), merged over the volatile and stable stores.
    kib_per_hour_by_kind: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Checkpoint KiB/h by snapshot section (app/mdcd/journals/...).
    kib_per_hour_by_section: Dict[str, float] = dataclasses.field(default_factory=dict)


def measure_scheme(config: OverheadConfig, scheme: Scheme,
                   topology: str = "paper") -> CostProfile:
    """Run one scheme on one membership and extract its cost profile."""
    horizon = config.horizon
    started = time.perf_counter()
    system = build_system(SystemConfig(
        scheme=scheme, seed=config.seed, horizon=horizon,
        tb=TbConfig(interval=30.0),
        workload1=WorkloadConfig(internal_rate=0.1, external_rate=0.02,
                                 step_rate=0.02, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.05, external_rate=0.02,
                                 step_rate=0.02, horizon=horizon),
        # The cost profile reads blocking.start records (and counters);
        # everything else in the trace would be dead weight.
        trace_categories=("blocking.start",),
        topology=topology))
    system.run()
    wall = time.perf_counter() - started

    processes = system.process_list()
    blocked_time = sum(rec.data["length"]
                       for rec in system.trace.records("blocking.start"))
    app_messages = sum(p.counters.get("sent.internal")
                       + p.counters.get("sent.external") for p in processes)
    notifications = sum(p.counters.get("sent.passed_at") for p in processes)
    hours = horizon / 3600.0
    by_kind: Dict[str, float] = {}
    by_section: Dict[str, float] = {}
    for p in processes:
        for store in (p.node.volatile, p.node.stable):
            for kind, nbytes in store.bytes_by_kind.items():
                by_kind[kind] = by_kind.get(kind, 0.0) + nbytes / 1024.0 / hours
            for section, nbytes in store.bytes_by_section.items():
                by_section[section] = (by_section.get(section, 0.0)
                                       + nbytes / 1024.0 / hours)
    topo = system.topology
    return CostProfile(
        scheme=scheme.value,
        topology=topo.spec,
        processes=len(processes),
        components=topo.n_components,
        shadows=topo.n_shadows,
        peers=topo.n_peers,
        blocked_time_fraction=blocked_time / (horizon * len(processes)),
        deferred_sends=sum(p.counters.get("blocked.deferred_send")
                           for p in processes),
        buffered_deliveries=sum(
            sum(v for k, v in p.counters.as_dict().items()
                if k.startswith("blocked.buffered.")) for p in processes),
        volatile_saves_per_hour=sum(p.node.volatile.saves
                                    for p in processes) / hours,
        volatile_kb_per_hour=sum(p.node.volatile.bytes_written
                                 for p in processes) / 1024.0 / hours,
        stable_saves_per_hour=sum(p.node.stable.saves
                                  for p in processes) / hours,
        stable_kb_per_hour=sum(p.node.stable.bytes_written
                               for p in processes) / 1024.0 / hours,
        notifications=notifications,
        notifications_per_app_message=(notifications / app_messages
                                       if app_messages else 0.0),
        at_runs=sum(p.counters.get("at.pass") + p.counters.get("at.fail")
                    for p in processes),
        wall_seconds=wall,
        kib_per_hour_by_kind=by_kind,
        kib_per_hour_by_section=by_section)


def _measure_cell(config: OverheadConfig, cell) -> CostProfile:
    """One (scheme, topology, seed) measurement — module-level so worker
    processes can receive it."""
    scheme, topology, seed = cell
    return measure_scheme(dataclasses.replace(config, seed=seed), scheme,
                          topology)


def _mean_profile(profiles: List[CostProfile]) -> CostProfile:
    """Field-wise mean cost profile over replications (dict-valued
    fields average key-wise, treating a missing key as zero; counts
    round to the nearest integer)."""
    n = len(profiles)
    means = {}
    for field in dataclasses.fields(CostProfile):
        values = [getattr(p, field.name) for p in profiles]
        if isinstance(values[0], str):
            continue
        if isinstance(values[0], dict):
            keys = sorted({k for v in values for k in v})
            means[field.name] = {k: sum(v.get(k, 0.0) for v in values) / n
                                 for k in keys}
        else:
            mean = sum(values) / n
            means[field.name] = (round(mean) if isinstance(values[0], int)
                                 else mean)
    return dataclasses.replace(profiles[0], **means)


def run_overhead(config: OverheadConfig = OverheadConfig(), *,
                 workers: Optional[int] = None) -> List[CostProfile]:
    """Measure every (scheme, topology) cell on the identical workload,
    scheme-major.

    With ``workers`` the (cell × replication) runs are distributed over
    worker processes; each cell sees the same seed list, so the
    comparison stays paired.
    """
    seeds = (replication_seeds(config.seed, "overhead", config.replications)
             if config.replications > 1 else [config.seed])
    cells = [(scheme, topology, seed) for scheme in config.schemes
             for topology in config.topologies for seed in seeds]
    from ..parallel.pool import parallel_map
    profiles = parallel_map(functools.partial(_measure_cell, config),
                            cells, workers=workers)
    by_cell: Dict[tuple, List[CostProfile]] = {}
    for (scheme, topology, _), profile in zip(cells, profiles):
        by_cell.setdefault((scheme, topology), []).append(profile)
    return [_mean_profile(runs) for runs in by_cell.values()]


def _format_breakdown(profiles: List[CostProfile], field: str,
                      title: str) -> str:
    """One breakdown table: schemes as rows, dict keys as columns."""
    keys = sorted({k for p in profiles for k in getattr(p, field)})
    if not keys:
        return ""
    rows = [[p.scheme] + [f"{getattr(p, field).get(k, 0.0):.1f}"
                          for k in keys]
            for p in profiles]
    return format_table(["scheme"] + keys, rows, title=title)


def format_overhead(profiles: List[CostProfile]) -> str:
    """Render the scheme comparison plus the checkpoint-byte breakdowns
    (where do checkpoint bytes go, by kind and by snapshot section)."""
    parts = [format_table(
        ["scheme", "blocked time", "deferred sends", "buffered recv",
         "vol saves/h", "vol KiB/h", "stable saves/h", "stable KiB/h",
         "notif/app-msg", "AT runs"],
        [[p.scheme, f"{p.blocked_time_fraction * 100:.3f}%",
          p.deferred_sends, p.buffered_deliveries,
          f"{p.volatile_saves_per_hour:.1f}", f"{p.volatile_kb_per_hour:.1f}",
          f"{p.stable_saves_per_hour:.1f}", f"{p.stable_kb_per_hour:.1f}",
          f"{p.notifications_per_app_message:.3f}", p.at_runs]
         for p in profiles],
        title="Performance cost by scheme (identical fault-free workload)")]
    for field, title in (
            ("kib_per_hour_by_kind",
             "Checkpoint KiB/h by checkpoint kind"),
            ("kib_per_hour_by_section",
             "Checkpoint KiB/h by snapshot section")):
        table = _format_breakdown(profiles, field, title)
        if table:
            parts.append(table)
    return "\n\n".join(parts)


def format_topology_sweep(profiles: List[CostProfile]) -> str:
    """Render the overhead-vs-N table (sorted by system size)."""
    return format_table(
        ["topology", "procs", "NxK+U", "blocked time", "stable KiB/h",
         "vol KiB/h", "notif/app-msg", "AT runs", "stable KiB/h/proc",
         "notif/proc", "wall"],
        [[p.topology, p.processes, f"{p.components}x{p.shadows}+{p.peers}",
          f"{p.blocked_time_fraction * 100:.3f}%",
          f"{p.stable_kb_per_hour:.1f}", f"{p.volatile_kb_per_hour:.1f}",
          f"{p.notifications_per_app_message:.3f}", p.at_runs,
          f"{p.stable_kb_per_hour / p.processes:.1f}",
          f"{p.notifications / p.processes:.1f}",
          f"{p.wall_seconds:.2f}s"]
         for p in sorted(profiles, key=lambda p: p.processes)],
        title="Coordinated-scheme overhead vs. topology size "
              "(identical fault-free workload)")
