"""Supervised multi-process execution for campaigns.

A fault-tolerant executor for a fault-tolerance reproduction: campaigns
map their cells over worker processes, cache completed cells on disk,
supervise workers (timeout, bounded retry, serial degradation) and
report progress telemetry.

* :mod:`~repro.parallel.pool` — :func:`parallel_map`, the one parallel
  entry point.
* :mod:`~repro.parallel.cache` — :class:`ResultCache`, keyed by
  ``(label, master seed, replication, config fingerprint)``.
* :mod:`~repro.parallel.supervisor` — :class:`ShardSupervisor` retry /
  timeout / degradation policy.
* :mod:`~repro.parallel.progress` — :class:`ProgressReporter` stderr
  lines + telemetry snapshot.
"""

from .cache import (
    CacheKey,
    ResultCache,
    campaign_fingerprint,
    config_fingerprint,
    default_cache_dir,
)
from .pool import default_worker_count, parallel_map
from .progress import ProgressReporter
from .supervisor import ShardSupervisor, multiprocessing_supported

__all__ = [
    "CacheKey",
    "ProgressReporter",
    "ResultCache",
    "ShardSupervisor",
    "campaign_fingerprint",
    "config_fingerprint",
    "default_cache_dir",
    "default_worker_count",
    "multiprocessing_supported",
    "parallel_map",
]
