"""Replication management for experiment campaigns.

Each replication runs one seeded system and extracts a list of metric
samples; the runner merges replications into a
:class:`~repro.sim.monitor.RunningStat` and derives child seeds so that
replication ``k`` of one configuration is paired with replication ``k``
of another (variance reduction for paired comparisons such as
E[D_co] vs E[D_wt]).

Campaigns run serially by default; pass ``workers`` to map the
replications over worker processes (see :mod:`repro.parallel`) and
``cache`` to persist completed cells on disk.  There is one body either
way: the seed list, the per-cell samples and the order they are folded
in do not depend on where a cell ran, so a parallel campaign reproduces
the serial result bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from ..sim.monitor import RunningStat, summarize
from ..sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.cache import ResultCache


@dataclasses.dataclass
class CampaignResult:
    """Aggregated outcome of a replicated campaign."""

    label: str
    stat: RunningStat
    samples: List[float]
    replications: int

    @property
    def mean(self) -> float:
        """Mean over all samples."""
        return self.stat.mean

    @property
    def ci95(self) -> float:
        """95% confidence half-width of the mean."""
        return self.stat.confidence_halfwidth()


def replication_seeds(master_seed: int, label: str, replications: int) -> List[int]:
    """Stable child seeds for a campaign's replications."""
    return [derive_seed(master_seed, f"{label}:rep{k}") % (1 << 31)
            for k in range(replications)]


def _run_cell(run_one: Callable[[int], Iterable[float]],
              seed: int) -> Tuple[List[float], float]:
    """One replication, wherever it runs: its samples and wall time."""
    started = time.monotonic()
    return [float(v) for v in run_one(seed)], time.monotonic() - started


def run_campaign(label: str, master_seed: int, replications: int,
                 run_one: Callable[[int], Iterable[float]], *,
                 workers: Optional[int] = None,
                 cache: Optional["ResultCache"] = None,
                 fingerprint: str = "") -> CampaignResult:
    """Run ``replications`` seeded replications and merge the samples.

    ``run_one(seed)`` builds+runs one system and returns metric samples
    (e.g. rollback distances).  With ``workers`` > 1 the replications
    are mapped over worker processes, one progress line per cell on
    stderr (``run_one`` must be picklable: a module-level function or a
    :func:`functools.partial` of one; anything else runs in-process);
    with ``cache`` set, completed replications are read from / written
    to disk keyed by ``(label, master_seed, replication, fingerprint)``.
    """
    from ..parallel import CacheKey, ProgressReporter, parallel_map

    seeds = replication_seeds(master_seed, label, replications)
    keys = [CacheKey(label, master_seed, rep_index, fingerprint)
            for rep_index in range(replications)]
    cells: List[Optional[List[float]]] = [
        cache.get(key) if cache is not None else None for key in keys]
    missing = [rep_index for rep_index, cell in enumerate(cells)
               if cell is None]
    progress = ProgressReporter(
        label, enabled=workers is not None and workers > 1)
    progress.start(len(missing),
                   cached_replications=replications - len(missing))

    def land(index: int, outcome: Tuple[List[float], float]) -> None:
        rep_index = missing[index]
        cell, wall_seconds = outcome
        cells[rep_index] = cell
        if cache is not None:
            cache.put(keys[rep_index], cell)
        progress.shard_done(index, replications=1, samples=len(cell),
                            wall_time=wall_seconds)

    parallel_map(functools.partial(_run_cell, run_one),
                 [seeds[rep_index] for rep_index in missing], workers,
                 on_done=land, progress=progress)
    progress.finish()

    samples = [value for cell in cells for value in cell]
    return CampaignResult(label=label, stat=summarize(samples),
                          samples=samples, replications=replications)
