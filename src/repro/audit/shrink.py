"""Counterexample shrinking: reduce a violating schedule to a minimum.

Given a schedule that violates (per a caller-supplied ``violates``
predicate — in the campaign, "rebuild the system, replay, audit") the
shrinker searches for a *smaller* schedule that still violates, along
two axes in order:

1. **Fewest faults** — classic ddmin over the combined fault list:
   try dropping halves, then quarters, ... then single faults.
2. **Simplest faults** — drop ``deactivate_at`` windows (a fault that
   never deactivates is a simpler description).
3. **Latest injection times** — per surviving fault, binary-search the
   latest time (on a coarse grid) at which the violation still occurs;
   later injection means less of the run is fault-affected, so the
   counterexample isolates the sensitive instant.

Every candidate evaluation is one full deterministic replay, so the
total is bounded by ``max_replays``; the search is greedy and keeps the
last violating schedule seen, so interruption at the budget still
returns a valid (if not minimal) counterexample.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from .schedule import FaultSchedule

#: Granularity of the latest-time binary search, in simulated seconds.
TIME_GRID = 1.0


@dataclasses.dataclass
class ShrinkResult:
    """Outcome of a shrink run."""

    schedule: FaultSchedule
    replays: int
    #: Whether the *input* schedule violated at all (when ``False`` the
    #: schedule is returned untouched — nothing to shrink).
    violated: bool
    #: Candidate evaluations answered from the verdict memo instead of
    #: a replay (ddmin restarts and ``_push_time`` revisit identical
    #: fault lists; hits spend none of the replay budget).
    cache_hits: int = 0

    def to_dict(self) -> dict:
        return {"schedule": self.schedule.to_dict(),
                "replays": self.replays, "violated": self.violated,
                "cache_hits": self.cache_hits}


class _Budget:
    """Replay counter with a hard cap and a verdict memo.

    ``violates`` is deterministic per canonical schedule, so a verdict,
    once paid for, is reused for free: repeat candidates (the ddmin
    sweep restarts, ``_simplify_windows`` re-proposing a ddmin result,
    ``_push_time`` landing on an already-tried grid point) neither
    replay nor spend budget — and stay answerable after exhaustion.
    """

    def __init__(self, violates: Callable[[FaultSchedule], bool],
                 max_replays: int) -> None:
        self._violates = violates
        self.max_replays = max_replays
        self.replays = 0
        self.cache_hits = 0
        self._memo: dict = {}

    @property
    def exhausted(self) -> bool:
        return self.replays >= self.max_replays

    def check(self, schedule: FaultSchedule) -> bool:
        key = schedule.to_json()
        if key in self._memo:
            self.cache_hits += 1
            return self._memo[key]
        if self.exhausted:
            return False
        self.replays += 1
        verdict = bool(self._violates(schedule))
        self._memo[key] = verdict
        return verdict


def _faults_of(schedule: FaultSchedule) -> List:
    """The combined, ordered fault list (software first)."""
    return list(schedule.software) + list(schedule.crashes)


def _with_fault_list(schedule: FaultSchedule, faults: List) -> FaultSchedule:
    software = tuple(f for f in faults if isinstance(f, SoftwareFaultPlan))
    crashes = tuple(f for f in faults if isinstance(f, HardwareFaultPlan))
    return schedule.with_faults(software, crashes, origin="shrunk")


def _ddmin(schedule: FaultSchedule, budget: _Budget) -> FaultSchedule:
    """Minimize the fault list: greedy subset removal (ddmin)."""
    faults = _faults_of(schedule)
    chunk = max(1, len(faults) // 2)
    while len(faults) > 1 and not budget.exhausted:
        removed_any = False
        start = 0
        while start < len(faults) and not budget.exhausted:
            candidate = faults[:start] + faults[start + chunk:]
            if candidate and budget.check(_with_fault_list(schedule, candidate)):
                faults = candidate
                removed_any = True
                # restart the sweep at this position with the same chunk
            else:
                start += chunk
        if chunk == 1 and not removed_any:
            break
        if not removed_any:
            chunk = max(1, chunk // 2)
    return _with_fault_list(schedule, faults)


def _simplify_windows(schedule: FaultSchedule, budget: _Budget) -> FaultSchedule:
    """Drop software-fault deactivation windows where possible."""
    current = schedule
    for i, spec in enumerate(current.software):
        if spec.deactivate_at is None or budget.exhausted:
            continue
        software = list(current.software)
        software[i] = dataclasses.replace(spec, deactivate_at=None)
        candidate = current.with_faults(tuple(software), current.crashes,
                                        origin="shrunk")
        if budget.check(candidate):
            current = candidate
    return current


def _push_time(schedule: FaultSchedule, index: int, kind: str,
               horizon: float, budget: _Budget) -> FaultSchedule:
    """Binary-search the latest violating injection time of one fault."""

    def at_time(sched: FaultSchedule, t: float) -> FaultSchedule:
        if kind == "software":
            software = list(sched.software)
            spec = software[index]
            shift = t - spec.activate_at
            deactivate = (spec.deactivate_at + shift
                          if spec.deactivate_at is not None else None)
            software[index] = dataclasses.replace(
                spec, activate_at=t, deactivate_at=deactivate)
            return sched.with_faults(tuple(software), sched.crashes,
                                     origin="shrunk")
        crashes = list(sched.crashes)
        crashes[index] = dataclasses.replace(crashes[index], crash_at=t)
        return sched.with_faults(sched.software, tuple(crashes),
                                 origin="shrunk")

    current = schedule
    spec = (current.software[index] if kind == "software"
            else current.crashes[index])
    lo = spec.activate_at if kind == "software" else spec.crash_at
    hi = horizon - TIME_GRID
    # invariant: the fault at time `lo` violates; search (lo, hi].
    while hi - lo > TIME_GRID and not budget.exhausted:
        mid = (lo + hi) / 2.0
        candidate = at_time(current, mid)
        if budget.check(candidate):
            current = candidate
            lo = mid
        else:
            hi = mid
    return current


def shrink_schedule(schedule: FaultSchedule,
                    violates: Callable[[FaultSchedule], bool],
                    horizon: float,
                    max_replays: int = 60,
                    push_times: bool = True) -> ShrinkResult:
    """Shrink ``schedule`` to a minimal still-violating counterexample.

    ``violates`` must be deterministic for a given schedule (the
    campaign's replay is).  The input schedule is re-checked first; if
    it does not violate (flaky caller) it is returned unchanged with
    ``violated=False``.
    """
    budget = _Budget(violates, max_replays)
    if not budget.check(schedule):
        return ShrinkResult(schedule=schedule, replays=budget.replays,
                            violated=False, cache_hits=budget.cache_hits)

    current = _ddmin(schedule, budget)
    current = _simplify_windows(current, budget)
    if push_times:
        for i in range(len(current.software)):
            current = _push_time(current, i, "software", horizon, budget)
        for i in range(len(current.crashes)):
            current = _push_time(current, i, "crash", horizon, budget)
    return ShrinkResult(schedule=current, replays=budget.replays,
                        violated=True, cache_hits=budget.cache_hits)
