"""Warm-start execution: full-system images and prefix-resume.

Audit campaigns and shrink searches replay enormous shared prefixes:
every schedule of one ``(config, seed, overrides)`` prefix is identical
to the fault-free reference run up to its first armed fault.  This
package captures the reference *once* as a series of full-system
images — simulator event heap, RNG stream positions, clocks, timers,
nodes, stores, processes, trace, armed hooks, the online auditor, and
the per-system message-id allocator, frozen against one shared-object
table per series (:mod:`repro.warmstart.image`, the codec flock
templates dump through too) — and resumes every schedule from the
newest image strictly before its divergence point.  Resumed runs are
bit-for-bit identical to cold runs (same findings, same canonical
trace digests); warm-start is purely a wall-clock optimization.

Entry points: ``run_audit(..., warmstart=True)`` /
``repro audit --warmstart`` for campaigns and :class:`WarmRunner` for
custom drivers; the speed-up is measured by the ``warm_shrink``
workload of the campaign ledger (``benchmarks/e2e``).
"""

from .engine import (
    MIN_GROUP,
    WarmRunner,
    build_image_set,
    capture_times,
    divergence_time,
    ensure_planned_sets,
    share_schedule_seeds,
)
from .image import ForkContext, SystemImage, capture, collect_shared, resume
from .store import ImageStore, PrefixKey

__all__ = [
    "MIN_GROUP",
    "ForkContext",
    "ImageStore",
    "PrefixKey",
    "SystemImage",
    "WarmRunner",
    "build_image_set",
    "capture",
    "capture_times",
    "collect_shared",
    "divergence_time",
    "ensure_planned_sets",
    "resume",
    "share_schedule_seeds",
]
