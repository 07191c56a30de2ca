"""Suffix-fork execution of audit campaigns.

:class:`FlockRunner` is the campaign runner
(:class:`~repro.audit.campaign.ScheduleRunner`) whose schedules start
as forks of a :class:`~repro.flock.template.ForkTemplate`: one resident
template per warm-start prefix group (``PrefixKey`` digest — same
config, seed, and timing overrides), thawed **once** from a warm-start
image or built directly from the reference config, serving the group's
schedules back-to-back as cheap forks while it advances monotonically
along the reference timeline.  The shard plan
(:func:`repro.fabric.plan.plan_shards`) runs groups largest-first and
divergence-ascending, so the biggest amortization happens first.

Within a group, two things are recycled across forks on top of the
shared-object table itself (whose checkpoint payloads remember what
they resolve to, whichever fork rolls back to one first):

* the **view memo** (:func:`~repro.analysis.global_state
  .install_view_cache`) — prefix checkpoints decode to auditor views
  once per group instead of once per fork;
* one **event pool** — each fork's kernel acquires from the previous
  fork's free list, keeping the hot event objects resident.

Everything observable is bit-for-bit identical to the warm and cold
paths: findings, error strings, shrink results, trace digests.  The
property tests and the campaign ledger's cold cross-check are the
oracle.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

from ..audit.campaign import ScheduleRunner
from ..warmstart.engine import MIN_GROUP, divergence_time
from ..warmstart.store import ImageStore, PrefixKey
from .template import FORK_EPS, FORK_QUANTUM, ForkTemplate, fork_position

#: Default shard size for parallel flock campaigns: groups larger than
#: this are split so one hot prefix still spreads across workers.
DEFAULT_FORK_BATCH = 32


class FlockRunner(ScheduleRunner):
    """Campaign runner whose schedules start as template forks."""

    mode = "flock"

    def __init__(self, config, store: Optional[ImageStore] = None,
                 timeline=None, fork_batch: int = DEFAULT_FORK_BATCH,
                 build_missing: bool = True) -> None:
        super().__init__(config, timeline=timeline)
        self.store = store
        self.fork_batch = max(1, int(fork_batch))
        #: Whether a missing template may be built from a direct
        #: reference run (workers consuming a pre-built image store
        #: turn this off and degrade to cold instead).
        self.build_missing = build_missing
        self._templates: Dict[str, ForkTemplate] = {}
        # Runner-lifetime memo dict: entries pin their keys, so they
        # stay valid across groups; shrink replays profit most.
        self._view_cache: Dict = {}
        self._pool = None
        self.flock_runs = 0
        self.templates_built = 0
        self.decode_seconds = 0.0
        self.build_seconds = 0.0
        self.fork_seconds = 0.0

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------
    def _key(self, schedule) -> PrefixKey:
        return PrefixKey.for_schedule(self.config, schedule)

    def _planned(self, schedules, shard_size: int) -> List[List[int]]:
        from ..fabric.plan import plan_shards
        return [list(shard.indices) for shard in plan_shards(
            self.config, schedules, shard_size=shard_size)]

    def shards(self, schedules) -> List[List[int]]:
        """The campaign's shard plan as index lists: prefix groups
        largest first, divergence-ascending (the template's advancement
        order), split into ``fork_batch``-sized chunks; schedules whose
        prefix nobody shares pooled last."""
        return self._planned(schedules, self.fork_batch)

    def groups(self, schedules) -> List[List[int]]:
        """:meth:`shards` with every group left whole."""
        return self._planned(schedules, len(schedules))

    # ------------------------------------------------------------------
    # template lifecycle
    # ------------------------------------------------------------------
    def _template_for(self, schedule, force: bool = False
                      ) -> Optional[ForkTemplate]:
        digest = self._key(schedule).digest()
        template = self._templates.get(digest)
        if template is not None:
            return template
        if not force and self._group_counts.get(digest, 0) < MIN_GROUP:
            return None
        template = self._make_template(schedule)
        if template is not None:
            self._templates[digest] = template
            self.templates_built += 1
        return template

    def _make_template(self, schedule) -> Optional[ForkTemplate]:
        if self.store is not None:
            # Start no later than the group's earliest fork position
            # (groups execute divergence-ascending, so this schedule's
            # position is the earliest the template must serve).
            position = fork_position(divergence_time(schedule),
                                     self.config.horizon)
            image = self.store.latest_before(self._key(schedule),
                                             position + FORK_EPS)
            if image is not None:
                begin = time.monotonic()
                template = ForkTemplate.from_image(image)
                self.decode_seconds += time.monotonic() - begin
                return template
        if not self.build_missing:
            return None
        begin = time.monotonic()
        template = ForkTemplate.from_reference(self.config, schedule)
        self.build_seconds += time.monotonic() - begin
        return template

    def prepare_shrink(self, schedule) -> None:
        """Force-build the template for ``schedule``'s prefix and
        pre-dump at each of its fault instants.

        Every shrink candidate keeps a subset of the violator's faults,
        so its divergence time is one of the violator's fault instants
        — pre-dumping there (ascending) lets candidates fork no matter
        which order the shrinker tries them in, even though template
        advancement is monotone.
        """
        times = [spec.activate_at for spec in schedule.software]
        times += [spec.crash_at for spec in schedule.crashes]
        if not times:
            # Override-only violator: its reference *is* the violating
            # run (useless as a template), and candidates that drop an
            # override leave the prefix group anyway.  Let the shrink
            # replay cold.
            return
        with self._caches():
            template = self._template_for(schedule, force=True)
            if template is None:
                return
            positions = sorted({fork_position(t, self.config.horizon)
                                for t in times})
            for position in positions:
                if (position < FORK_QUANTUM
                        or position < template.start_position
                        or position < template.position):
                    continue
                if not template.advance_to(position):
                    break
                template.dump()

    # ------------------------------------------------------------------
    # cache scope
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _caches(self):
        """The group-scoped view memo, for the ``with`` block."""
        from ..analysis.global_state import install_view_cache
        install_view_cache(self._view_cache)
        if self._pool is None:
            from ..sim.events import EventPool
            self._pool = EventPool()
        try:
            yield
        finally:
            install_view_cache(None)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fork_for(self, template: ForkTemplate, schedule):
        """A thawed ``(system, auditor)`` fork positioned strictly
        before ``schedule``'s divergence — or ``None`` when no clean
        fork position is reachable (cold fallback)."""
        position = fork_position(divergence_time(schedule),
                                 self.config.horizon)
        if position < FORK_QUANTUM or position < template.start_position:
            return None
        if position >= template.position and template.advance_to(position):
            image = template.dump()
        else:
            image = template.dump_at(position)
        if image is None:
            return None
        begin = time.monotonic()
        system, auditor = template.fork(image, fail_fast=True)
        system.sim._pool = self._pool
        schedule.arm(system)
        self.fork_seconds += time.monotonic() - begin
        return system, auditor

    @contextlib.contextmanager
    def _start(self, schedule, fail_fast: bool):
        """A fork off the prefix group's template, run inside the
        group-scoped view memo — installed only around template
        advancement and forked execution, where prefix checkpoints are
        shared; a fresh-build fallback's private ones can never hit."""
        template = self._template_for(schedule)
        forked = None
        if template is not None:
            with self._caches():
                forked = self._fork_for(template, schedule)
                if forked is not None:
                    self.flock_runs += 1
                    forked[1].fail_fast = fail_fast
                    yield forked
        if forked is None:
            yield None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters and the per-phase timing breakdown."""
        stats = super().stats()
        stats.update({
            "flock_runs": self.flock_runs,
            "templates_built": self.templates_built,
            "flock_groups": len(self._group_counts),
            "decode_seconds": round(self.decode_seconds, 6),
            "build_seconds": round(self.build_seconds, 6),
            "fork_seconds": round(self.fork_seconds, 6),
        })
        forks = dumps = dump_bytes = shared = 0
        advance = encode = 0.0
        for template in self._templates.values():
            tstats = template.stats()
            forks += tstats["forks"]
            dumps += tstats["dumps"]
            dump_bytes += tstats["dump_bytes"]
            shared += tstats["shared_objects"]
            advance += tstats["advance_seconds"]
            encode += tstats["dump_seconds"]
        stats.update({
            "forks": forks, "dumps": dumps, "dump_bytes": dump_bytes,
            "shared_objects": shared,
            "advance_seconds": round(advance, 6),
            "dump_encode_seconds": round(encode, 6),
        })
        if self._pool is not None:
            stats["pool_reused"] = self._pool.reused
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def summary(self) -> str:
        return (f"flock: {self.flock_runs} forked / {self.cold_runs} cold "
                f"coordinator runs, {self.templates_built} templates "
                f"({self.fork_seconds:.2f}s forking)")
