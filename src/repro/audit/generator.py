"""Adversarial schedule generation.

Two complementary generators feed an audit campaign:

* :func:`boundary_schedules` — *systematic* enumeration.  A fault-free
  reference run of the configured system yields a
  :class:`ReferenceTimeline` (checkpoint commits, blocking windows,
  acceptance-test passes, resynchronizations); schedules are then built
  that pin faults exactly at the protocol's sensitive instants: crashes
  a hair before/after a stable commit, crashes inside a TB blocking
  period, software faults activated just before an acceptance-test
  pass, crashes landing mid-software-recovery, coincident software +
  hardware faults, double crashes, crashes at resynchronization times,
  and clock-skew-extreme variants.
* :func:`random_schedules` — *randomized* exploration from a seeded
  RNG, boundary-biased: a slice of the random fault times is snapped
  near commit instants so the random pool keeps hammering the same
  sensitive windows with otherwise-novel fault mixes.

Both are deterministic functions of the :class:`AuditConfig`; a
campaign of ``N`` schedules is reproducible from the config alone.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Dict, Iterator, List, Optional, Tuple

from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from ..sim.rng import derive_seed
from ..topology.model import parse_topology
from .config import AuditConfig
from .schedule import SYSTEM_NODES, FaultSchedule

#: Epsilon used to land "just before"/"just after" a protocol instant.
BOUNDARY_EPS = 0.25

#: Repair time of every boundary-enumeration crash.
BOUNDARY_REPAIR = 2.0

#: Clock-skew extremes explored by the override schedules.
SKEW_DELTAS = (0.0, 0.5)
SKEW_RHOS = (0.0, 1e-3)


def _schedule_seed(config: AuditConfig, index: int) -> int:
    """The system seed of the ``index``-th schedule (31-bit, stable)."""
    return derive_seed(config.seed, f"audit:{index}") % (2 ** 31)


def _campaign_nodes(config: AuditConfig):
    """Crash targets, derived from the campaign's topology (for the
    paper shape this is exactly the historical ``SYSTEM_NODES``)."""
    nodes = parse_topology(config.topology).node_ids()
    assert config.topology != "paper" or nodes == SYSTEM_NODES
    return nodes


@dataclasses.dataclass(frozen=True)
class ReferenceTimeline:
    """Protocol instants observed in a fault-free reference run."""

    #: ``(time, process_id, epoch)`` of every stable-commit.
    commits: Tuple[Tuple[float, str, int], ...]
    #: ``(start, end)`` of every observed blocking period.
    blocking: Tuple[Tuple[float, float], ...]
    #: Times of acceptance-test passes.
    at_passes: Tuple[float, ...]
    #: Times of clock resynchronizations.
    resyncs: Tuple[float, ...]

    def commit_times(self) -> List[float]:
        """Distinct commit instants, ascending."""
        return sorted({t for t, _p, _e in self.commits})


def reference_timeline(config: AuditConfig) -> ReferenceTimeline:
    """Run the configured system fault-free and extract its timeline."""
    from ..coordination.scheme import build_system
    probe = FaultSchedule(label="reference",
                          system_seed=_schedule_seed(config, 0),
                          origin="boundary")
    system = build_system(config.system_config(probe))
    system.run()

    commits: List[Tuple[float, str, int]] = []
    blocking: List[Tuple[float, float]] = []
    at_passes: List[float] = []
    resyncs: List[float] = []
    open_blocks: Dict[Optional[str], float] = {}
    for rec in system.trace:
        if rec.category == "tb.establish.done":
            epoch = rec.data.get("epoch")
            if epoch is not None:
                commits.append((rec.time, str(rec.process), epoch))
        elif rec.category == "blocking.start":
            open_blocks[rec.process] = rec.time
        elif rec.category == "blocking.end":
            start = open_blocks.pop(rec.process, None)
            if start is not None:
                blocking.append((start, rec.time))
        elif rec.category == "at.pass":
            at_passes.append(rec.time)
        elif rec.category == "resync":
            resyncs.append(rec.time)
    return ReferenceTimeline(commits=tuple(commits),
                             blocking=tuple(sorted(blocking)),
                             at_passes=tuple(at_passes),
                             resyncs=tuple(resyncs))


# ----------------------------------------------------------------------
# systematic boundary enumeration
# ----------------------------------------------------------------------
def _crash(node: str, at: float) -> HardwareFaultPlan:
    """A boundary-enumeration crash of ``node`` at ``at``."""
    return HardwareFaultPlan(node_id=node, crash_at=at,
                             repair_time=BOUNDARY_REPAIR)


def _boundary_stream(config: AuditConfig, timeline: ReferenceTimeline
                     ) -> Iterator[FaultSchedule]:
    """The systematic boundary schedules, one lazy stream per category,
    interleaved round-robin (categories in name order) so a truncated
    prefix still covers all categories — and builds no schedule past
    the prefix its consumer takes."""
    nodes = _campaign_nodes(config)
    n_components = parse_topology(config.topology).n_components
    horizon = config.horizon
    commit_times = [t for t in timeline.commit_times()
                    if BOUNDARY_EPS < t < horizon - 1.0]
    at_times = [t for t in timeline.at_passes
                if BOUNDARY_EPS < t < horizon - 1.0]
    # Any positive window qualifies: blocking is typically only the
    # stable-write latency (~tens of ms), and the crash must land
    # *inside* it — the midpoint does, for every length.
    mid_blocks = sorted({(a + b) / 2.0 for a, b in timeline.blocking if b > a})

    def pre_at(i: int, t: float) -> Tuple[SoftwareFaultPlan]:
        # With several guarded components the enumeration cycles the
        # defective component (one per AT instant); the paper shape
        # always targets component 1.
        return (SoftwareFaultPlan(activate_at=t - BOUNDARY_EPS,
                                  component=(i % n_components) + 1),)

    # Each category is a lazy stream of (software, crashes, overrides).
    categories = {
        # Crashes pinned to checkpoint-commit boundaries: just before a
        # commit (the establishment is mid-flight) and just after (the
        # new line is the freshest possible recovery basis).
        "commit-edge": (((), (_crash(node, t + side),), ())
                        for t in commit_times for node in nodes
                        for side in (-BOUNDARY_EPS, BOUNDARY_EPS)),
        # Crashes inside a TB blocking period (buffered messages, content
        # swaps and establishment commits all in flight).
        "mid-blocking": (((), (_crash(node, t),), ())
                         for t in mid_blocks for node in nodes),
        # A software fault activated just before an acceptance-test
        # pass: contamination that the very next validation wave will
        # (wrongly, under the naive scheme) launder into the checkpoints
        # ...
        "pre-at": ((pre_at(i, t), (), ()) for i, t in enumerate(at_times)),
        # ... with a crash landing mid-software-recovery (the fault's
        # eventual AT failure triggers rollback; crash it shortly after)
        "mid-recovery": ((pre_at(i, t), (_crash(node, t + 2.0),), ())
                         for i, t in enumerate(at_times) for node in nodes),
        # ... and the coincident case: software fault and crash at
        # (essentially) the same instant.
        "coincident": ((pre_at(i, t), (_crash(node, t),), ())
                       for i, t in enumerate(at_times) for node in nodes),
        # Double crashes around one commit: the recovery line must
        # survive losing two nodes in quick succession.
        "double-crash": (((), (_crash(first, t - BOUNDARY_EPS),
                               _crash(second, t + 1.0)), ())
                         for t in commit_times
                         for i, first in enumerate(nodes)
                         for second in nodes[i + 1:]),
        # Crashes at resynchronization instants (timer resets in flight).
        "resync-edge": (((), (_crash(node, t),), ())
                        for t in timeline.resyncs
                        if BOUNDARY_EPS < t < horizon - 1.0
                        for node in nodes),
        # Clock-skew extremes: the same mid-horizon crash under the
        # largest and smallest clock deviations the model admits (the
        # last node in topology order — the paper's "N2").
        "skew": (((), (_crash(nodes[-1], horizon / 2.0),),
                  (("clock_delta", delta), ("clock_rho", rho)))
                 for delta in SKEW_DELTAS for rho in SKEW_RHOS),
    }
    rounds = itertools.zip_longest(*(
        zip(itertools.repeat(name), itertools.count(), categories[name])
        for name in sorted(categories)))
    interleaved = (entry for entries in rounds for entry in entries
                   if entry is not None)
    for position, (name, index, (software, crashes, overrides)) in \
            enumerate(interleaved):
        yield FaultSchedule(
            label=f"boundary:{name}:{index}",
            system_seed=_schedule_seed(config, position),
            software=software, crashes=crashes, overrides=overrides,
            origin="boundary")


def boundary_schedules(config: AuditConfig,
                       timeline: Optional[ReferenceTimeline] = None
                       ) -> List[FaultSchedule]:
    """Every systematic boundary schedule, interleaved by category so a
    truncated prefix still covers all categories."""
    if timeline is None:
        timeline = reference_timeline(config)
    return list(_boundary_stream(config, timeline))


# ----------------------------------------------------------------------
# randomized exploration
# ----------------------------------------------------------------------
def random_schedules(config: AuditConfig, count: int, start_index: int = 0,
                     timeline: Optional[ReferenceTimeline] = None
                     ) -> List[FaultSchedule]:
    """``count`` seeded-random schedules (indices ``start_index..``).

    Fault times are boundary-biased: with probability 0.5 a time is
    snapped near a commit instant of the reference timeline.
    """
    commit_times = timeline.commit_times() if timeline is not None else []
    nodes = _campaign_nodes(config)
    n_components = parse_topology(config.topology).n_components
    horizon = config.horizon
    out: List[FaultSchedule] = []
    for offset in range(count):
        index = start_index + offset
        rng = random.Random(derive_seed(config.seed, f"audit:rng:{index}"))

        def pick_time(lo: float, hi: float) -> float:
            if commit_times and rng.random() < 0.5:
                base = rng.choice(commit_times)
                jitter = rng.uniform(-2.0, 2.0)
                return min(max(lo, base + jitter), hi)
            return rng.uniform(lo, hi)

        software: List[SoftwareFaultPlan] = []
        for _ in range(rng.randint(0, config.max_software)):
            activate = pick_time(10.0, horizon * 0.8)
            deactivate = (activate + rng.uniform(20.0, 200.0)
                          if rng.random() < 0.5 else None)
            # The component draw is guarded so single-component
            # campaigns (the paper shape) consume exactly the
            # historical RNG stream.
            comp = rng.randint(1, n_components) if n_components > 1 else 1
            software.append(SoftwareFaultPlan(activate_at=activate,
                                              deactivate_at=deactivate,
                                              component=comp))
        crashes: List[HardwareFaultPlan] = []
        for _ in range(rng.randint(0, config.max_crashes)):
            crashes.append(HardwareFaultPlan(
                node_id=rng.choice(nodes),
                crash_at=pick_time(10.0, horizon * 0.9),
                repair_time=rng.uniform(0.5, 5.0)))
        out.append(FaultSchedule(
            label=f"random:{index}",
            system_seed=_schedule_seed(config, index),
            software=tuple(sorted(software, key=lambda s: s.activate_at)),
            crashes=tuple(sorted(crashes, key=lambda c: c.crash_at)),
            origin="random"))
    return out


def generate_schedules(config: AuditConfig,
                       timeline: Optional[ReferenceTimeline] = None
                       ) -> List[FaultSchedule]:
    """The campaign's full schedule list: a boundary-enumeration prefix
    (up to ``boundary_fraction`` of the campaign) topped up with
    seeded-random schedules.

    ``timeline`` lets callers that already ran the reference (the
    campaign runner, the warm-start engine) pass it in; a campaign
    computes the reference timeline exactly once.
    """
    if timeline is None:
        timeline = reference_timeline(config)
    schedules = list(itertools.islice(
        _boundary_stream(config, timeline),
        int(round(config.schedules * config.boundary_fraction))))
    return schedules + random_schedules(
        config, config.schedules - len(schedules),
        start_index=len(schedules), timeline=timeline)
