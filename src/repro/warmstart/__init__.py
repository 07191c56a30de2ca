"""Warm-start execution: full-system images of a shared prefix.

Audit campaigns and shrink searches replay enormous shared prefixes:
every schedule of one ``(config, seed, overrides)`` prefix is identical
to the fault-free reference run up to its first armed fault.  This
package freezes and thaws mid-run systems — simulator event heap, RNG
stream positions, clocks, timers, nodes, stores, processes, trace,
armed hooks, the online auditor, and the per-system message-id
allocator, frozen against one shared-object table per reference
(:mod:`repro.warmstart.image`: the one codec under image sets *and*
flock template dumps) — and builds, stores and verifies the *image
sets* that carry a prefix to other processes
(:mod:`repro.warmstart.engine`, :mod:`repro.warmstart.store`).  Copies
started this way are bit-for-bit identical to cold runs (same findings,
same canonical trace digests); warm-start is purely a wall-clock
optimization.

Entry points: ``run_audit(..., warmstart=True)`` /
``repro audit --warmstart`` for campaigns.  Inside one process every
schedule forks off its prefix's resident template
(:class:`repro.flock.FlockRunner`, which :class:`WarmRunner` names for
warm-start callers); the speed-up is measured by the ``warm_shrink``
workload of the campaign ledger (``benchmarks/e2e``).
"""

from .engine import (
    MIN_GROUP,
    build_image_set,
    capture_times,
    divergence_time,
    ensure_image_set,
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
    "ensure_image_set",
    "ensure_planned_sets",
    "resume",
    "share_schedule_seeds",
]


def __getattr__(name: str):
    # ``repro.flock`` builds on this package, so the runner it defines
    # can only be named here lazily.
    if name == "WarmRunner":
        from ..flock.runner import WarmRunner
        return WarmRunner
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
