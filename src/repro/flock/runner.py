"""Suffix-fork execution of audit campaigns.

:class:`FlockRunner` is the campaign runner
(:class:`~repro.audit.campaign.ScheduleRunner`) whose schedules start
as forks of a :class:`~repro.flock.template.ForkTemplate`: one resident
template per warm-start prefix group (``PrefixKey`` digest — same
config, seed, and timing overrides), built directly from the reference
config — or thawed **once** from a warm-start image where the store
already holds the prefix's set (a pool or fabric worker, a reused
on-disk store) — and serving the group's schedules as cheap forks while
it advances monotonically along the reference timeline.  It is the one
runner behind ``flock=True`` *and* ``warmstart=True``
(:class:`WarmRunner` is the same runner under the names warm-start
callers know): a process that runs schedules never builds an image set
for itself; sets exist to ship a prefix to *other* processes
(:func:`~repro.warmstart.engine.ensure_planned_sets`).

:meth:`FlockRunner.plan` records, per prefix group, the positions its
schedules fork at, and the template dumps at each one it passes — so a
planned schedule forks at its own position whatever order schedules
arrive in.  An unplanned position (a shrink candidate that moved a
fault later, a schedule nobody planned) resolves one way: ahead of the
template, advance and dump there; behind it, the newest dump at or
before it (a longer suffix, the same run); a fresh build only when
there is none.

Forks share the shared-object table itself (whose checkpoints remember
the auditor view they decode to, and whose payloads what they resolve
to, whichever fork needs it first), and every finished fork is handed
back by reference count
(:meth:`~repro.coordination.scheme.System.release`), so the collector
never has to walk the resident template to free one.

Everything observable is bit-for-bit identical to a cold run: findings,
error strings, shrink results, trace digests.  The property tests and
the campaign ledger's cold cross-check are the oracle.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from ..audit.campaign import ScheduleRunner
from ..warmstart.engine import divergence_time, fault_times
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
        #: Where a template is thawed from when a set is there already.
        self.store = store if store is not None else ImageStore()
        self.fork_batch = max(1, int(fork_batch))
        #: Whether a missing template may be built from a direct
        #: reference run (workers consuming a pre-built image store
        #: turn this off and degrade to cold instead).
        self.build_missing = build_missing
        #: Planned fork positions of each shared prefix, by digest.  A
        #: prefix listed here is worth a template; nothing here is ever
        #: pickled.
        self._planned: Dict[str, Set[float]] = {}
        self._templates: Dict[str, ForkTemplate] = {}
        self.flock_runs = 0
        self.templates_built = 0
        self.decode_seconds = 0.0
        self.build_seconds = 0.0
        self.fork_seconds = 0.0

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _key(self, schedule) -> PrefixKey:
        return PrefixKey.for_schedule(self.config, schedule)

    def _position(self, t: float) -> float:
        return fork_position(t, self.config.horizon)

    def _shards(self, schedules, shard_size: int):
        from ..fabric.plan import plan_shards
        return plan_shards(self.config, schedules, shard_size=shard_size)

    def plan(self, schedules) -> None:
        """Record where the schedules of each shared prefix fork.
        Replans from scratch, so planning the same campaign twice
        changes nothing."""
        self._planned = {
            shard.prefix: {self._position(divergence_time(schedules[index]))
                           for index in shard.indices}
            for shard in self._shards(schedules, len(schedules))
            if shard.prefix is not None}

    def prepare_shrink(self, schedule) -> None:
        """Plan ``schedule``'s fault positions.

        Every shrink candidate keeps a subset of the violator's faults,
        untouched or moved *later*, and the shrinker tries them in no
        particular order: a candidate whose first fault is untouched
        forks at one of these positions, any other at the newest dump
        before its own (see the module docstring).  All of them share
        the violator's prefix, which makes it worth a template however
        few campaign schedules did.
        """
        # Override-only violator: its reference *is* the violating run
        # (useless as a template), and candidates that drop an override
        # leave the prefix group anyway.  Let the shrink replay cold.
        times = fault_times(schedule)
        if times:
            self._planned.setdefault(
                self._key(schedule).digest(), set()).update(
                    self._position(t) for t in times)

    def shards(self, schedules) -> List[List[int]]:
        """The campaign's shard plan as index lists: prefix groups
        largest first, divergence-ascending, split into
        ``fork_batch``-sized chunks; schedules whose prefix nobody
        shares pooled last."""
        return [list(shard.indices)
                for shard in self._shards(schedules, self.fork_batch)]

    def groups(self, schedules) -> List[List[int]]:
        """:meth:`shards` with every group left whole."""
        return [list(shard.indices)
                for shard in self._shards(schedules, len(schedules))]

    # ------------------------------------------------------------------
    # template lifecycle
    # ------------------------------------------------------------------
    def _template_for(self, schedule, digest: str) -> Optional[ForkTemplate]:
        template = self._templates.get(digest)
        if template is None and digest in self._planned:
            template = self._make_template(schedule, self._planned[digest])
            if template is not None:
                self._templates[digest] = template
                self.templates_built += 1
        return template

    def _make_template(self, schedule, planned: Set[float]
                       ) -> Optional[ForkTemplate]:
        # Thawed no later than the earliest position it is to serve.
        positions = planned | {self._position(divergence_time(schedule))}
        earliest = min((p for p in positions if p >= FORK_QUANTUM),
                       default=0.0)
        image = self.store.latest_before(self._key(schedule),
                                         earliest + FORK_EPS)
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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _start(self, schedule, fail_fast: bool):
        """A fork off the prefix's template, thawed strictly before
        ``schedule``'s divergence and armed — or ``None`` when the
        prefix has no template or no clean dump is early enough."""
        digest = self._key(schedule).digest()
        template = self._template_for(schedule, digest)
        if template is None:
            return None
        position = self._position(divergence_time(schedule))
        if position < FORK_QUANTUM or position < template.start_position:
            return None
        if position >= template.position and template.advance_to(
                position, self._planned.get(digest, ())):
            image = template.dump()
        else:
            image = template.dump_at(position)
        if image is None:
            return None
        begin = time.monotonic()
        system, auditor = template.fork(image, fail_fast=fail_fast)
        schedule.arm(system)
        self.fork_seconds += time.monotonic() - begin
        self.flock_runs += 1
        return system, auditor

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Counters and the per-phase timing breakdown."""
        stats = super().stats()
        stats.update({
            "flock_runs": self.flock_runs,
            "templates_built": self.templates_built,
            "flock_groups": len(self._planned),
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
        stats.update(self.store.stats())
        return stats

    def summary(self) -> str:
        return (f"{self.mode}: {self.flock_runs} forked / {self.cold_runs} "
                f"cold coordinator runs, {self.templates_built} templates "
                f"({self.fork_seconds:.2f}s forking)")


class WarmRunner(FlockRunner):
    """:class:`FlockRunner` under the names ``warmstart=True`` callers
    and the campaign ledger's frozen per-layer driver
    (``benchmarks/e2e/layers.py``) know it by: mode ``"warm"``,
    :meth:`ensure_images`, and the ``warm_runs`` / ``sets_built`` /
    ``build_seconds`` / ``decode_seconds`` stats.  Nothing here starts
    a schedule; to be dropped once the ledger reads the runner's own
    names."""

    mode = "warm"

    def ensure_images(self, schedule, force: bool = False) -> bool:
        """Whether ``schedule`` has a template to fork off afterwards;
        ``force`` (the shrink path) is :meth:`prepare_shrink`."""
        if force:
            self.prepare_shrink(schedule)
        digest = self._key(schedule).digest()
        return self._template_for(schedule, digest) is not None

    def stats(self) -> Dict[str, float]:
        """The ledger's warm-start columns over the one runner: a
        *build* is everything spent on the resident reference (building,
        advancing, dumping it), a *decode* every thaw (the template's
        own and each fork's); the runner builds no image set."""
        stats = super().stats()
        stats.update({
            "warm_runs": stats["flock_runs"], "sets_built": 0,
            "build_seconds": round(
                stats["build_seconds"] + stats["advance_seconds"]
                + stats["dump_encode_seconds"], 6),
            "decode_seconds": round(
                stats["decode_seconds"] + stats["fork_seconds"], 6)})
        return stats
