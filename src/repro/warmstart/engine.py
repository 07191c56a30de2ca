"""Prefix-resume execution: run the shared prefix once, fork futures.

Every schedule of an audit campaign (and every candidate of a shrink
search) is a *divergence* from the fault-free reference run of its
``(config, system seed, timing overrides)`` prefix: up to the first
armed fault, the runs are event-for-event identical.  The engine
exploits that:

1. :func:`build_image_set` runs the reference once, capturing
   :class:`~repro.warmstart.image.SystemImage` snapshots at planned
   instants (:func:`capture_times` — a coarse grid plus points just
   ahead of the reference timeline's sensitive instants, the places
   boundary schedules pin faults), all frozen against one
   shared-object table.  Capturing stops at the reference's
   first own finding — an image past it would bake the finding into
   every resumed future, which a cold run would have reported earlier.
2. :class:`WarmRunner` — the campaign runner
   (:class:`~repro.audit.campaign.ScheduleRunner`) whose schedules
   start from an image — computes a schedule's :func:`divergence_time`,
   thaws the newest image *strictly before* it, arms the schedule's
   faults on the copy, and runs forward — skipping the shared prefix
   entirely.  Schedules with no usable image (different prefix,
   divergence before the first capture, or a singleton group not worth
   a reference run) start from a fresh build, so warm execution is
   always a pure optimization: identical findings, traces, and shrink
   results, just less wall-clock.

Determinism fine print: fault injectors schedule at ``CONTROL``
priority, the lowest, so arming them late (at resume time, with higher
sequence numbers than the cold run's build-time arming) can only
reorder events against other ``CONTROL`` events at the *exact* same
float instant — and every resume happens strictly before the first
fault time.  The warm-start tests' digest cross-checks and the
golden-trace suite assert the bit-for-bit contract on every
configuration we ship.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..audit.campaign import ScheduleRunner, start_fresh
from ..audit.schedule import FaultSchedule
from ..sim.rng import derive_seed
from .image import ForkContext, SystemImage, capture, collect_shared, resume
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

#: Build a prefix's image set only when at least this many schedules
#: will share it (a reference run + captures must amortize).
MIN_GROUP = 2


def divergence_time(schedule) -> float:
    """When ``schedule`` first departs from its fault-free reference.

    The earliest armed fault instant; ``inf`` for a fault-free schedule
    (it *is* the reference — any image works).  Seed and timing
    overrides are part of the prefix key, not of this time: a schedule
    only ever resumes from images of its own ``(config, seed,
    overrides)`` prefix.
    """
    times = [spec.activate_at for spec in schedule.software]
    times += [spec.crash_at for spec in schedule.crashes]
    return min(times) if times else float("inf")


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


class WarmRunner(ScheduleRunner):
    """Campaign runner whose schedules start from a thawed image.

    Owns an :class:`ImageStore`, decides per schedule whether a warm
    resume is available (building reference image sets on demand for
    prefixes that :meth:`plan` saw enough schedules share), and starts
    from a fresh build whenever it is not.  ``build_missing=False``
    makes the runner consume-only — the worker-process mode, where the
    coordinator pre-built every set into a shared on-disk store.
    """

    mode = "warm"

    def __init__(self, config, store: Optional[ImageStore] = None,
                 timeline=None, build_missing: bool = True) -> None:
        super().__init__(config, timeline=timeline)
        self.store = store if store is not None else ImageStore()
        self.build_missing = build_missing
        self._times: Optional[List[float]] = None
        self.warm_runs = 0
        self.sets_built = 0
        self.build_seconds = 0.0
        #: Wall-clock decoding images back into live systems (the cost
        #: the flock path amortizes to once per group).
        self.decode_seconds = 0.0

    # ------------------------------------------------------------------
    def _key(self, schedule) -> PrefixKey:
        return PrefixKey.for_schedule(self.config, schedule)

    def planned_times(self) -> List[float]:
        """The capture plan (computed once per runner)."""
        if self._times is None:
            self._times = capture_times(self.config, self.timeline)
        return self._times

    def ensure_images(self, schedule, force: bool = False) -> bool:
        """Make sure the schedule's prefix has an image set.

        Builds one when allowed (``build_missing``) and worth it (the
        planned group reaches :data:`MIN_GROUP`, or ``force`` — the
        shrink path, which replays one prefix dozens of times).
        Returns whether a set exists afterwards.
        """
        key = self._key(schedule)
        if self.store.has(key):
            return True
        if not self.build_missing:
            return False
        if not force and self._group_counts.get(key.digest(), 0) < MIN_GROUP:
            return False
        begin = time.monotonic()
        if ensure_image_set(self.config, self.store, schedule,
                            self.planned_times()):
            self.build_seconds += time.monotonic() - begin
            self.sets_built += 1
        return True

    def image_for(self, schedule) -> Optional[SystemImage]:
        """The newest usable image for ``schedule``, if any."""
        if not self.ensure_images(schedule):
            return None
        return self.store.latest_before(self._key(schedule),
                                        divergence_time(schedule))

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _start(self, schedule, fail_fast: bool):
        image = self.image_for(schedule)
        if image is None:
            yield None
            return
        self.warm_runs += 1
        begin = time.monotonic()
        system, auditor = resume(image, fail_fast=fail_fast)
        self.decode_seconds += time.monotonic() - begin
        schedule.arm(system)
        yield system, auditor

    def prepare_shrink(self, original) -> None:
        """Every shrink candidate shares the violator's prefix: always
        worth a reference image set."""
        self.ensure_images(original, force=True)

    def stats(self) -> Dict[str, float]:
        stats = super().stats()
        stats.update({
            "warm_runs": self.warm_runs, "sets_built": self.sets_built,
            "build_seconds": round(self.build_seconds, 6),
            "decode_seconds": round(self.decode_seconds, 6)})
        stats.update(self.store.stats())
        return stats

    def summary(self) -> str:
        return (f"warmstart: {self.warm_runs} warm / {self.cold_runs} cold "
                f"coordinator runs, {self.sets_built} image sets "
                f"({self.build_seconds:.2f}s building)")
