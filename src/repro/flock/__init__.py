"""Suffix-fork batch execution: thousands of schedules, one image.

``repro.flock`` layers on :mod:`repro.warmstart`: where warm-start
thaws one full-system image *per schedule*, a flock decodes each image
**once** into a resident :class:`~repro.flock.template.ForkTemplate`
and forks per-schedule ``(system, auditor)`` copies from it through
the same shared-table codec the image was frozen with
(:mod:`repro.warmstart.image`).  The
:class:`~repro.flock.runner.FlockRunner` keeps one template per prefix
group and recycles the view memo and the kernel event pool across a
group's forks.

Results are bit-for-bit identical to warm and cold execution —
findings, errors, shrink results, trace digests.
"""

from .runner import DEFAULT_FORK_BATCH, FlockRunner
from .template import FORK_QUANTUM, ForkTemplate, fork_position

__all__ = [
    "DEFAULT_FORK_BATCH",
    "FORK_QUANTUM",
    "FlockRunner",
    "ForkTemplate",
    "fork_position",
]
