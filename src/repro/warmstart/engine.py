"""Prefix images: run the shared prefix once, ship it to other processes.

Every schedule of an audit campaign (and every candidate of a shrink
search) is a *divergence* from the fault-free reference run of its
``(config, system seed, timing overrides)`` prefix: up to the first
armed fault (:func:`divergence_time`), the runs are event-for-event
identical, so a schedule can start from a copy of the reference frozen
strictly before that instant instead of from a fresh build.  *Within*
a process the copies are forks of one resident template
(:mod:`repro.flock`), dumped only where a schedule forks.  This module
is what carries a prefix *across* processes:

1. :func:`build_image_set` runs the reference once, capturing
   :class:`~repro.warmstart.image.SystemImage` snapshots at planned
   instants (:func:`capture_times` — a coarse grid plus points just
   ahead of the reference timeline's sensitive instants, the places
   boundary schedules pin faults), all frozen against one
   shared-object table.  The grid is dense because the builder cannot
   know where the consumer's shard will fork.  Capturing stops at the
   reference's first own finding — an image past it would bake the
   finding into every resumed future, which a cold run would have
   reported earlier.
2. :func:`ensure_planned_sets` — the campaign pipeline's *prepare*
   step, the only caller — builds each shared prefix's set once into
   the store pool workers and fabric hosts read, and a worker's runner
   thaws its template from the newest image *strictly before* its
   shard's earliest fork.  A process that finds no usable image
   (different prefix, divergence before the first capture) starts from
   a fresh build, so this is always a pure optimization: identical
   findings, traces, and shrink results, just less wall-clock.

Determinism fine print: fault injectors schedule at ``CONTROL``
priority, the lowest, so arming them late (at fork time, with higher
sequence numbers than the cold run's build-time arming) can only
reorder events against other ``CONTROL`` events at the *exact* same
float instant — and every fork happens strictly before the first
fault time.  The warm-start tests' digest cross-checks and the
golden-trace suite assert the bit-for-bit contract on every
configuration we ship.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..audit.campaign import start_fresh
from ..audit.schedule import FaultSchedule
from ..sim.rng import derive_seed
from .image import ForkContext, SystemImage, capture, collect_shared
from .store import ImageStore, PrefixKey

#: How far ahead of a sensitive instant a pre-point capture lands —
#: comfortably more than the generator's ``BOUNDARY_EPS`` (0.25), so
#: "just before" fault times still find an image before them.
CAPTURE_LEAD = 0.75

#: Minimum spacing between captures; closer candidates are merged.
MIN_CAPTURE_GAP = 2.0

#: Hard cap on images per prefix (a ~15-20 KB dump each at horizon
#: 900, beside the set's one ~400 KB table).
MAX_IMAGES = 48

#: A prefix is worth a template or an image set only when at least
#: this many schedules share it (a reference run must amortize).
MIN_GROUP = 2


def fault_times(schedule) -> List[float]:
    """Every instant ``schedule`` arms a fault at."""
    return ([spec.activate_at for spec in schedule.software]
            + [spec.crash_at for spec in schedule.crashes])


def divergence_time(schedule) -> float:
    """When ``schedule`` first departs from its fault-free reference.

    The earliest armed fault instant; ``inf`` for a fault-free schedule
    (it *is* the reference — any image works).  Seed and timing
    overrides are part of the prefix key, not of this time: a schedule
    only ever resumes from images of its own ``(config, seed,
    overrides)`` prefix.
    """
    return min(fault_times(schedule), default=float("inf"))


def capture_times(config, timeline=None) -> List[float]:
    """Planned capture instants for one prefix of ``config``.

    A uniform grid (bounding how much any resume must re-simulate)
    plus a point :data:`CAPTURE_LEAD` ahead of each sensitive instant
    of the reference ``timeline`` — commits, blocking starts,
    acceptance-test passes, resynchronizations — since those are
    exactly where boundary schedules aim their faults.  Thinned to
    :data:`MIN_CAPTURE_GAP` spacing and capped at :data:`MAX_IMAGES`.
    """
    stop = config.horizon - 1.0
    step = max(config.tb_interval / 2.0, config.horizon / float(MAX_IMAGES))
    candidates = set()
    t = step
    while t < stop:
        candidates.add(round(t, 6))
        t += step
    if timeline is not None:
        sensitive: List[float] = list(timeline.commit_times())
        sensitive += [start for start, _end in timeline.blocking]
        sensitive += list(timeline.at_passes)
        sensitive += list(timeline.resyncs)
        for t in sensitive:
            pre = t - CAPTURE_LEAD
            if 0.0 < pre < stop:
                candidates.add(round(pre, 6))
    times: List[float] = []
    for t in sorted(candidates):
        if not times or t - times[-1] >= MIN_CAPTURE_GAP:
            times.append(t)
    if len(times) > MAX_IMAGES:
        stride = len(times) / float(MAX_IMAGES)
        times = [times[int(i * stride)] for i in range(MAX_IMAGES)]
    return times


def share_schedule_seeds(config, schedules) -> List:
    """Rewrite every schedule onto one shared system seed.

    Audit campaigns default to a distinct seed per schedule (maximum
    workload diversity), which makes every schedule its own prefix and
    leaves nothing for warm-start to share.  A warm campaign trades
    that diversity for prefix reuse: all schedules run against the
    system seeded by this one derived value.  Schedules carry their
    seed, so artifacts and replays stay self-describing.
    """
    import dataclasses
    seed = derive_seed(config.seed, "audit:shared") % (2 ** 31)
    return [dataclasses.replace(sched, system_seed=seed)
            for sched in schedules]


def build_image_set(config, seed: int,
                    overrides: Tuple[Tuple[str, float], ...] = (),
                    times: Optional[List[float]] = None,
                    timeline=None) -> List[SystemImage]:
    """Run one fault-free reference and capture its image set.

    The probe carries the prefix's timing overrides (and the campaign's
    mutation, planted by ``build_audit_system``) so resumed futures
    continue the exact system a cold run of any schedule in this prefix
    would have built.  The attached auditor is captured *inside* each
    image — with ``fail_fast`` off, so capture can never abort — and
    capturing stops at the reference's first finding.  Every image is
    a dump against the set's one table, which grows with the reference.
    """
    if times is None:
        times = capture_times(config, timeline)
    probe = FaultSchedule(label="warmstart-ref", system_seed=seed,
                          overrides=tuple(sorted(overrides)),
                          origin="warmstart")
    system, auditor = start_fresh(config, probe, fail_fast=False)
    context = ForkContext()
    trace_seen = 0
    images: List[SystemImage] = []
    for t in times:
        system.run(until=t)
        if auditor.violated:
            break
        trace_seen = collect_shared(context, system, auditor, trace_seen)
        images.append(capture(system, auditor, context=context))
    return images


def ensure_image_set(config, store: ImageStore, schedule,
                     times: List[float]) -> bool:
    """Build ``schedule``'s prefix image set into ``store`` unless one
    is there already; whether this call built it."""
    key = PrefixKey.for_schedule(config, schedule)
    if store.has(key):
        return False
    with store.build_lock(key):
        # Double-checked: another process sharing this on-disk store (a
        # co-located fabric worker, a sibling coordinator) may have
        # built the set while we waited on the lock.
        if store.has(key):
            return False
        store.put(key, build_image_set(
            config, schedule.system_seed,
            overrides=tuple(sorted(schedule.overrides)), times=times))
    return True


def ensure_planned_sets(config, store: ImageStore, schedules: Sequence,
                        plan: Sequence, timeline=None) -> Dict[str, float]:
    """The campaign pipeline's *prepare* step: give every prefix the
    shard ``plan`` shares an image set in ``store``, each built at most
    once, before shards that only consume leave this process."""
    begin = time.monotonic()
    times = capture_times(config, timeline)
    # Any schedule of a prefix names it: only seed and overrides count.
    probes = {shard.prefix: shard.indices[0] for shard in plan
              if shard.prefix is not None}
    built = sum(ensure_image_set(config, store, schedules[index], times)
                for index in probes.values())
    return {"sets_exported": built,
            "export_seconds": round(time.monotonic() - begin, 6)}
