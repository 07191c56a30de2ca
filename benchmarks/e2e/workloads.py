"""The five pinned audit workloads of the campaign ledger.

Each workload is one fixed campaign shape run through the public
``run_audit`` entry point.  ``prepare`` turns ``(name, seed, scale)``
into the inputs (config, reference timeline, schedule list); a *round*
is one complete campaign over those inputs with nothing carried over
from the previous round (fresh image store, fresh CAS directory, fresh
worker processes), so image builds, template builds and worker spawns
are paid inside the timed region every time, as a user pays them.

What ``--seed`` changes.  Every workload pins its campaign at
:data:`CAMPAIGN_SEED` and lets ``--seed`` draw, per schedule, the offset
(at most :data:`JITTER` seconds, towards the past) its fault instants
are shifted by: different inputs on every seed, the same regime.  Handing
the seed to ``AuditConfig.seed`` instead changes the *amount* of work:
over ten campaign seeds ``cold_paper`` ran between 36 and 51 schedules/s
with the two runs of each seed agreeing, and the prefix-shaped workloads
lose their shape altogether (54 to 82 late schedules, 0 to 2 violators,
576 to 1964 flock variants over four seeds).

The late-divergence and near-horizon slices are cut here, not imported
from ``repro.experiments.warmstart_bench`` (``bench_slice`` /
``flock_slice``): those drivers are what later changes retire, and the
ledger's inputs must not move when they do.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
from typing import Any, Dict, List, Optional

from repro.audit import (
    AuditConfig,
    FaultSchedule,
    boundary_schedules,
    generate_schedules,
    reference_timeline,
    run_audit,
)
from repro.warmstart import ImageStore, divergence_time, share_schedule_seeds

#: The campaign every workload is cut from (and the default ``--seed``).
CAMPAIGN_SEED = 7

#: Late-divergence window of ``warm_shrink`` (seconds before horizon).
WARM_WINDOW = 60.0
#: Near-horizon window and densification of ``flock_dense``.
FLOCK_WINDOW = 12.0
FLOCK_VARIANTS = 192
FLOCK_BAND = 7.44
#: Largest seeded shift of a fault instant.  Below the generator's
#: ``BOUNDARY_EPS`` (0.25 s), so "just before a commit" stays before it.
JITTER = 0.2

#: Workers (and usable CPUs) ``fabric_2w`` needs.
FABRIC_WORKERS = 2
FABRIC_SHARD_SIZE = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    """One pinned campaign shape (why each was chosen: ``BENCHMARK.json``
    and the README)."""

    name: str
    #: ``cold`` / ``warm`` / ``flock`` / ``fabric``: which ``run_audit``
    #: path a round takes.
    kind: str
    scheme: str
    horizon: float
    topology: str
    #: Schedules in one round at ``--scale 1``.
    schedules: int

    @property
    def calibrated(self) -> bool:
        """Whether round timings are rescaled by ``measure.calibrate``.
        The loop tells how fast *this* process computes right now; a
        fabric round is computed by two other processes and by waits,
        and over ten seeds its throughput spread 3.9 % as measured
        against 8.5 % rescaled (single-process ``flock_dense``: 10.6 %
        against 3.2 %)."""
        return self.kind != "fabric"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cold_paper",
        kind="cold", scheme="coordinated", horizon=600.0,
        topology="paper", schedules=72),
    Workload(
        name="cold_topo",
        kind="cold", scheme="coordinated", horizon=600.0,
        topology="2x2+3", schedules=22),
    Workload(
        name="warm_shrink",
        kind="warm", scheme="naive", horizon=900.0,
        topology="paper", schedules=68),
    Workload(
        name="flock_dense",
        kind="flock", scheme="naive", horizon=900.0,
        topology="paper", schedules=760),
    Workload(
        name="fabric_2w",
        kind="fabric", scheme="coordinated", horizon=600.0,
        topology="paper", schedules=96),
)}


@dataclasses.dataclass
class Prepared:
    """The inputs of one workload: everything a round consumes."""

    workload: Workload
    seed: int
    config: AuditConfig
    timeline: Any
    schedules: List[FaultSchedule]


def _scaled(count: int, scale: float) -> int:
    return max(4, int(round(count * scale)))


def _shifted(schedule: FaultSchedule, offset: float, label: str
             ) -> FaultSchedule:
    """``schedule`` with every fault instant moved by ``offset``."""
    return dataclasses.replace(
        schedule, label=label,
        software=tuple(dataclasses.replace(s, activate_at=s.activate_at + offset)
                       for s in schedule.software),
        crashes=tuple(dataclasses.replace(c, crash_at=c.crash_at + offset)
                      for c in schedule.crashes))


def _fault_times(schedule: FaultSchedule) -> List[float]:
    return ([s.activate_at for s in schedule.software]
            + [c.crash_at for c in schedule.crashes])


def _late_slice(config: AuditConfig, timeline) -> List[FaultSchedule]:
    """Shared-seed boundary schedules diverging within
    :data:`WARM_WINDOW` of the horizon."""
    cutoff = config.horizon - WARM_WINDOW
    shared = share_schedule_seeds(config, boundary_schedules(config, timeline))
    return [s for s in shared if divergence_time(s) >= cutoff]


def _flock_slice(config: AuditConfig, timeline) -> List[FaultSchedule]:
    """Boundary schedules whose faults all land within
    :data:`FLOCK_WINDOW` of the horizon, densified with
    :data:`FLOCK_VARIANTS` copies spread over a fixed band (denser
    exploration of the same boundary, not a wider one)."""
    cutoff = config.horizon - FLOCK_WINDOW
    shared = share_schedule_seeds(config, boundary_schedules(config, timeline))
    sources = [s for s in shared
               if _fault_times(s) and min(_fault_times(s)) >= cutoff]
    step = FLOCK_BAND / FLOCK_VARIANTS
    dense: List[FaultSchedule] = []
    for sched in sources:
        for k in range(FLOCK_VARIANTS):
            offset = (k - FLOCK_VARIANTS // 2) * step
            times = [t + offset for t in _fault_times(sched)]
            if min(times) > JITTER and max(times) < config.horizon - 1.0:
                dense.append(_shifted(sched, offset, f"{sched.label}~j{k}"))
    return dense


def prepare(name: str, seed: int, scale: float = 1.0) -> Prepared:
    """Build one workload's inputs from ``seed`` (same seed, same
    inputs).  Everything here is what ``setup_s`` times."""
    workload = WORKLOADS[name]
    count = _scaled(workload.schedules, scale)
    config = AuditConfig(scheme=workload.scheme, seed=CAMPAIGN_SEED,
                         schedules=count, horizon=workload.horizon,
                         topology=workload.topology)
    timeline = reference_timeline(config)
    if workload.kind == "warm":
        base = _late_slice(config, timeline)
    elif workload.kind == "flock":
        base = _flock_slice(config, timeline)
    else:
        base = generate_schedules(config, timeline=timeline)
    rng = random.Random(seed)
    schedules = [_shifted(s, -JITTER * rng.random(), s.label)
                 for s in base[:count]]
    return Prepared(workload=workload, seed=seed, config=config,
                    timeline=timeline, schedules=schedules)


def campaign_kwargs(prepared: Prepared, workdir: str) -> Dict[str, Any]:
    """The ``run_audit`` arguments of one round (fresh stores each
    call; ``workdir`` is emptied for the fabric's CAS directory)."""
    kind = prepared.workload.kind
    kwargs: Dict[str, Any] = {"schedules": prepared.schedules,
                              "timeline": prepared.timeline}
    if kind == "warm":
        kwargs.update(warmstart=True, shrink=True, image_store=ImageStore())
    elif kind == "flock":
        kwargs.update(warmstart=True, flock=True, image_store=ImageStore())
    elif kind == "fabric":
        from repro.fabric import FabricConfig
        cas_dir = os.path.join(workdir, "cas")
        shutil.rmtree(cas_dir, ignore_errors=True)
        os.makedirs(cas_dir)
        kwargs.update(fabric=FABRIC_WORKERS, fabric_opts={
            "cas_dir": cas_dir,
            "fabric": FabricConfig(shard_size=FABRIC_SHARD_SIZE)})
    return kwargs


def run_round(prepared: Prepared, workdir: str, log=None):
    """One complete campaign; returns the :class:`AuditReport`."""
    return run_audit(prepared.config, log=log,
                     **campaign_kwargs(prepared, workdir))


def unresolved_reason(name: str) -> Optional[str]:
    """Why this host cannot resolve the workload, if it cannot."""
    if WORKLOADS[name].kind == "fabric":
        cpus = len(os.sched_getaffinity(0))
        if cpus < FABRIC_WORKERS:
            return (f"{cpus} usable CPU(s); {FABRIC_WORKERS} workers need "
                    f"{FABRIC_WORKERS}")
    return None
