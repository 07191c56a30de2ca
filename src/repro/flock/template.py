"""Resident fork templates: one live reference, many cheap futures.

A :class:`ForkTemplate` holds a *live* fault-free ``(system, auditor)``
pair — thawed once from a warm-start image, or built directly from the
campaign config — and advances it along the reference timeline on
demand.  At any clean position it can emit a compact dump — a
:class:`~repro.warmstart.image.SystemImage` like any warm-start image,
captured against the group's shared-object table — and thaw any number
of independent forks from it.

Template lifetime rules:

* **Advancement is monotone.**  The live pair only moves forward; a
  fork at an earlier position comes from a *cached dump* taken when the
  template was there (the grow-only context keeps old dumps decodable).
  So advancement is told where schedules are planned to fork
  (``advance_to(t, stops)``) and dumps at each such position it passes:
  whatever order schedules arrive in, a planned one finds the dump of
  its own position.
* **Advancement stops mattering at the reference's first finding.**
  A dump of a violated reference would bake the finding — and trace
  past it — into every fork, which a cold run (fail-fast) would never
  have produced.  ``advance_to`` refuses to advance a violated
  template, and ``dump`` refuses to emit one; callers fork from the
  last clean cached dump instead (a longer re-simulation, still
  bit-for-bit correct).
* **Forks never write back.**  A fork gets private copies of all
  mutable state; the only objects it shares with the template are the
  registered fork-safe ones (see :mod:`repro.warmstart.image`).
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..warmstart.image import (ForkContext, SystemImage, capture,
                               collect_shared, resume)

#: Fork positions are quantized to this grid so schedules with nearby
#: divergence times reuse one cached dump (boundary schedules cluster
#: on the TB grid, making the hit rate high).
FORK_QUANTUM = 1.0

#: Margin subtracted before quantizing, guaranteeing the fork position
#: lies strictly before the divergence instant.
FORK_EPS = 1e-6

#: How often (simulated seconds) advancement re-checks the reference
#: for findings.  A violated reference can never serve another fork,
#: so advancing it further is pure waste — chunked advancement bounds
#: that waste (mutated protocols can violate on the fault-free
#: reference itself) without touching the event-level execution, which
#: is identical whether ``run`` is called once or in slices.
ADVANCE_CHECK_INTERVAL = 10.0


def fork_position(divergence: float, horizon: float,
                  quantum: float = FORK_QUANTUM) -> float:
    """The quantized template position to fork at for ``divergence``.

    Strictly before the divergence instant; capped just short of the
    horizon for fault-free schedules (``divergence == inf``)."""
    limit = min(divergence, horizon) - FORK_EPS
    return max(0.0, math.floor(limit / quantum) * quantum)


class ForkTemplate:
    """One resident reference run serving a flock group's forks."""

    def __init__(self, system, auditor,
                 context: Optional[ForkContext] = None) -> None:
        self.system = system
        self.auditor = auditor
        if auditor is not None:
            # The resident reference must never abort mid-advance.
            auditor.fail_fast = False
        self.context = context if context is not None else ForkContext()
        #: Where the template was born (an image's capture instant, or
        #: 0 for a from-scratch reference).  It can never serve a fork
        #: position before this.
        self.start_position = system.sim.now
        self._dumps: Dict[float, SystemImage] = {}
        collect_shared(self.context, system, auditor)
        #: Wall-clock spent advancing the reference (shared work).
        self.advance_seconds = 0.0
        #: Wall-clock spent encoding dumps (amortized over forks).
        self.dump_seconds = 0.0
        self.forks = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_image(cls, image) -> "ForkTemplate":
        """Thaw a template from a warm-start image (decoded **once**;
        every fork of the group reuses the resident copy).  The image's
        table becomes the template's context: everything the thawed
        reference shares with it is registered already, and the
        template's own advancement only appends."""
        system, auditor = resume(image, fail_fast=False)
        return cls(system, auditor, context=image.context)

    @classmethod
    def from_reference(cls, config, schedule) -> "ForkTemplate":
        """Build a template by constructing the fault-free reference
        directly (no image set needed — the serial path)."""
        from ..audit.campaign import start_fresh
        from ..audit.schedule import FaultSchedule
        probe = FaultSchedule(label="flock-ref",
                              system_seed=schedule.system_seed,
                              overrides=tuple(sorted(schedule.overrides)),
                              origin="flock")
        system, auditor = start_fresh(config, probe, fail_fast=False)
        return cls(system, auditor)

    # ------------------------------------------------------------------
    @property
    def position(self) -> float:
        return self.system.sim.now

    @property
    def clean(self) -> bool:
        """Whether the reference has produced no finding yet."""
        return self.auditor is None or not self.auditor.violated

    def advance_to(self, t: float, stops: Iterable[float] = ()) -> bool:
        """Advance the resident reference to ``t`` (monotone), dumping
        at every position of ``stops`` passed on the way.

        Returns whether the template is clean (dumpable) afterwards.
        A violated template stops advancing — its current state is
        useless for forking, so running it further is wasted work.
        """
        for stop in sorted(s for s in stops if self.position < s < t) + [t]:
            if not self.clean:
                break
            if stop > self.position:
                begin = time.monotonic()
                while self.position < stop and self.clean:
                    self.system.run(until=min(
                        stop, self.position + ADVANCE_CHECK_INTERVAL))
                collect_shared(self.context, self.system, self.auditor)
                self.advance_seconds += time.monotonic() - begin
            if stop < t and self.clean:
                self.dump()
        return self.clean

    # ------------------------------------------------------------------
    def dump(self) -> SystemImage:
        """The (cached) image of the current clean position."""
        if not self.clean:
            raise RuntimeError("refusing to dump a violated reference "
                               "(forks would inherit its finding)")
        key = round(self.position, 6)
        image = self._dumps.get(key)
        if image is None:
            begin = time.monotonic()
            image = capture(self.system, self.auditor, context=self.context)
            self.dump_seconds += time.monotonic() - begin
            self._dumps[key] = image
        return image

    def dump_positions(self) -> List[float]:
        """Positions with a cached dump (ascending)."""
        return sorted(self._dumps)

    def dump_at(self, position: float) -> Optional[SystemImage]:
        """The newest cached dump at or before ``position``, if any."""
        keys = [key for key in self._dumps if key <= position + FORK_EPS]
        return self._dumps[max(keys)] if keys else None

    # ------------------------------------------------------------------
    def fork(self, image: Optional[SystemImage] = None,
             fail_fast: bool = True) -> Tuple[object, object]:
        """Thaw one independent ``(system, auditor)`` fork.

        ``image`` selects a cached dump (default: the current position).
        The fork's auditor switches to the campaign's fail-fast mode;
        the caller arms the schedule's faults on the copy.
        """
        self.forks += 1
        return resume(image if image is not None else self.dump(),
                      fail_fast=fail_fast)

    def stats(self) -> Dict[str, float]:
        return {
            "forks": self.forks,
            "dumps": len(self._dumps),
            "dump_bytes": sum(len(d.dump) for d in self._dumps.values()),
            "shared_objects": len(self.context),
            "advance_seconds": round(self.advance_seconds, 6),
            "dump_seconds": round(self.dump_seconds, 6),
        }
