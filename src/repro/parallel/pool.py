"""The supervised process-pool map every parallel campaign runs on.

:func:`parallel_map` is the one parallel entry point: replicated
campaigns (:func:`repro.experiments.runner.run_campaign`) map it over
their missing ``(replication, seed)`` cells, audit campaigns over their
shards, the table / sweep experiments over their configurations.
Worker failures are owned by
:class:`~repro.parallel.supervisor.ShardSupervisor`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

from .cache import stable_dumps
from .progress import ProgressReporter
from .supervisor import ShardSupervisor


def default_worker_count() -> int:
    """Usable CPUs (respecting affinity masks), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def _picklable(obj: Any) -> bool:
    try:
        stable_dumps(obj)
        return True
    except Exception:
        return False


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 workers: Optional[int] = None, *,
                 on_done: Optional[Callable[[int, Any], None]] = None,
                 progress: Optional[ProgressReporter] = None) -> List[Any]:
    """Order-preserving supervised map over worker processes.

    Each item is one shard; with ``workers`` absent/1, an unpicklable
    ``fn``, or a platform without multiprocessing, this is a plain
    in-process map — callers never need a fallback path of their own.
    ``on_done(index, result)`` fires here, in the caller's process, as
    each item lands (exactly once per item, retried or not);
    ``progress`` is told of every retry and degradation.
    """
    supervisor = ShardSupervisor(progress=progress)
    items = list(items)
    count = workers if workers is not None else 1
    if count > 1 and not _picklable((fn, items[:1])):
        supervisor.degraded("map function is not picklable")
        count = 1
    return supervisor.run(fn, items, workers=count, on_shard_done=on_done)
