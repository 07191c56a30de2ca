"""Suffix-fork batch execution: thousands of schedules, one reference.

``repro.flock`` layers on :mod:`repro.warmstart`: one live fault-free
reference per shared prefix — a resident
:class:`~repro.flock.template.ForkTemplate`, built from the reference
config or thawed **once** from a warm-start image — advances lazily
along the timeline and forks per-schedule ``(system, auditor)`` copies
through the shared-table codec images are frozen with
(:mod:`repro.warmstart.image`), dumping only where a schedule forks.
The :class:`~repro.flock.runner.FlockRunner` is the one campaign runner
whose schedules do not start from a fresh build (``flock=True`` and
``warmstart=True`` both); it keeps one template per prefix group.

Results are bit-for-bit identical to cold execution — findings,
errors, shrink results, trace digests.
"""

from .runner import DEFAULT_FORK_BATCH, FlockRunner, WarmRunner
from .template import FORK_QUANTUM, ForkTemplate, fork_position

__all__ = [
    "DEFAULT_FORK_BATCH",
    "FORK_QUANTUM",
    "FlockRunner",
    "ForkTemplate",
    "WarmRunner",
    "fork_position",
]
