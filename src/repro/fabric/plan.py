"""Prefix-aware shard planning — the campaign pipeline's only grouping.

The planner turns a campaign's schedule list into dispatchable shards,
for every executor: the in-process loop, the local pool and the fabric
all run what :func:`plan_shards` returns, and the flock runner plans
its prefix groups' fork positions through it.  Grouping follows the suffix-fork layer's
economics (:mod:`repro.flock`): schedules sharing a warm-start prefix —
``PrefixKey`` digest over (config fingerprint, system seed, timing
overrides) — land in the same shard wherever possible, so the worker
that executes the shard holds **one** resident
:class:`~repro.flock.template.ForkTemplate` and forks every schedule
from it.  Groups larger than ``shard_size`` split
into chunks (one resident template per chunk); prefixes shared by fewer
than :data:`~repro.warmstart.engine.MIN_GROUP` schedules are not worth
an image set or a template, so their schedules coalesce into mixed
cold shards instead of degenerating into per-schedule dispatch
round-trips.

Shards are ordered largest-prefix-group first — the work-stealing
queue hands the expensive, amortizable work out while every worker is
still alive, leaving the cheap mixed tail for the end-of-campaign
steal phase.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..warmstart.engine import MIN_GROUP, divergence_time
from ..warmstart.store import PrefixKey

#: Default schedules per shard: small enough that stealing a dead
#: worker's shard is cheap, large enough to amortize dispatch and one
#: template decode.
DEFAULT_SHARD_SIZE = 16


@dataclasses.dataclass(frozen=True)
class Shard:
    """One dispatchable unit of campaign work."""

    #: Stable shard id (index into the plan; the journal's key).
    shard_id: int
    #: Indices into the campaign's schedule list, execution order.
    indices: tuple
    #: The shared warm-start prefix digest, or ``None`` for a mixed
    #: shard of singleton prefixes (always executed cold).
    prefix: Optional[str]

    def to_dict(self) -> Dict:
        return {"shard_id": self.shard_id, "indices": list(self.indices),
                "prefix": self.prefix}


def plan_shards(config, schedules: Sequence, *,
                shard_size: int = DEFAULT_SHARD_SIZE) -> List[Shard]:
    """The campaign's shard plan (deterministic in its inputs)."""
    shard_size = max(1, int(shard_size))
    by_prefix: Dict[str, List[int]] = {}
    for index, sched in enumerate(schedules):
        digest = PrefixKey.for_schedule(config, sched).digest()
        by_prefix.setdefault(digest, []).append(index)

    grouped = sorted(
        (item for item in by_prefix.items() if len(item[1]) >= MIN_GROUP),
        key=lambda item: (-len(item[1]), item[1][0]))
    singles: List[int] = sorted(
        index for _digest, idxs in by_prefix.items()
        if len(idxs) < MIN_GROUP for index in idxs)

    shards: List[Shard] = []
    for digest, idxs in grouped:
        # Divergence-ascending execution order inside a group is the
        # resident template's monotone-advancement order.
        idxs = sorted(idxs, key=lambda i: (divergence_time(schedules[i]), i))
        for at in range(0, len(idxs), shard_size):
            shards.append(Shard(shard_id=len(shards),
                                indices=tuple(idxs[at:at + shard_size]),
                                prefix=digest))
    for at in range(0, len(singles), shard_size):
        shards.append(Shard(shard_id=len(shards),
                            indices=tuple(singles[at:at + shard_size]),
                            prefix=None))
    return shards


def assemble(plan: Sequence[Shard], shard_results: Sequence[Sequence[Dict]],
             count: int) -> List[Dict]:
    """Merge per-shard result lists (aligned with ``plan``) back into
    schedule order."""
    ordered: List[Optional[Dict]] = [None] * count
    for shard, results in zip(plan, shard_results):
        for index, result in zip(shard.indices, results):
            ordered[index] = result
    missing = [i for i, r in enumerate(ordered) if r is None]
    if missing:
        raise RuntimeError(f"campaign lost results for schedules {missing}")
    return ordered


def plan_prefixes(plan: Sequence[Shard]) -> List[str]:
    """The distinct prefix digests a plan references (sorted) — the
    image sets a warm campaign must export before dispatch."""
    return sorted({shard.prefix for shard in plan
                   if shard.prefix is not None})
