"""ASCII timeline rendering — the paper's Figures 1/3 drawn from traces.

The paper's protocol figures show per-process execution lanes with
shaded potentially-contaminated intervals, checkpoint markers, and
acceptance-test events.  :func:`render_timeline` reconstructs exactly
that picture from a run's trace:

* ``░`` — interval during which the process's (pseudo) dirty bit is 0;
* ``▓`` — potentially contaminated interval (the paper's shading);
* ``1`` / ``2`` / ``P`` — Type-1 / Type-2 / pseudo volatile checkpoints
  (the paper's filled/hollow rectangles);
* ``S`` — a completed stable-storage checkpoint establishment;
* ``A`` — an acceptance test (``!`` if it failed);
* ``X`` / ``R`` — node crash / recovery rollback affecting the lane.

Markers overwrite shading at their instant; when several land in the
same column the most salient (failure > recovery > checkpoint > AT)
wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, SystemConfig, build_system
from ..sim.trace import TraceRecorder
from ..types import ProcessId, Role

#: Rendering priority (higher wins a shared column).
_PRIORITY = {"!": 6, "X": 5, "R": 4, "S": 3, "1": 2, "2": 2, "P": 2, "A": 1}

_CKPT_MARKS = {"type-1": "1", "type-2": "2", "pseudo": "P"}


def _place(lane: List[str], priority: List[int], column: int, mark: str) -> None:
    if 0 <= column < len(lane):
        rank = _PRIORITY.get(mark, 0)
        if rank >= priority[column]:
            lane[column] = mark
            priority[column] = rank


def render_timeline(trace: TraceRecorder, processes: Sequence[ProcessId],
                    since: float, until: float, width: int = 100,
                    pseudo_for: Optional[ProcessId] = None) -> str:
    """Render per-process lanes over ``[since, until]``.

    ``pseudo_for`` names the process whose contamination shading should
    follow its *pseudo* dirty bit (the paper's dashed line for
    ``P1_act`` in Fig. 3); other processes shade by the dirty bit.
    """
    if until <= since:
        raise ValueError("empty timeline window")
    scale = width / (until - since)

    def column(t: float) -> int:
        return min(width - 1, max(0, int((t - since) * scale)))

    lanes: Dict[ProcessId, List[str]] = {}
    priorities: Dict[ProcessId, List[int]] = {}
    for pid in processes:
        # Shade from confidence transitions: walk the full trace so the
        # state at `since` is known.
        bit_name = "pseudo" if pid == pseudo_for else "dirty"
        shading = []
        dirty = False
        cursor = since
        for rec in trace.records("confidence.", pid):
            if rec.data.get("bit") != bit_name:
                continue
            now_dirty = rec.category.endswith(".dirty")
            if rec.time <= since:
                dirty = now_dirty
                continue
            if rec.time > until:
                break
            shading.append((cursor, rec.time, dirty))
            cursor, dirty = rec.time, now_dirty
        shading.append((cursor, until, dirty))
        lane = []
        for (start, end, is_dirty) in shading:
            lane.extend(["▓" if is_dirty else "░"]
                        * (column(end) - len(lane) + (1 if end >= until else 0)))
        lane = (lane + ["░"] * width)[:width]
        lanes[pid] = lane
        priorities[pid] = [0] * width

    for rec in trace.records(since=since, until=until):
        pid = rec.process
        if pid not in lanes:
            continue
        lane, priority = lanes[pid], priorities[pid]
        if rec.category.startswith("checkpoint.volatile."):
            kind = rec.category.rsplit(".", 1)[-1]
            _place(lane, priority, column(rec.time), _CKPT_MARKS.get(kind, "?"))
        elif rec.category == "tb.establish.done":
            _place(lane, priority, column(rec.time), "S")
        elif rec.category == "at.pass":
            _place(lane, priority, column(rec.time), "A")
        elif rec.category == "at.fail":
            _place(lane, priority, column(rec.time), "!")
        elif rec.category.startswith("recovery.rollback"):
            _place(lane, priority, column(rec.time), "R")
    for rec in trace.records("fault.crash", since=since, until=until):
        node = rec.data.get("node")
        for pid, lane in lanes.items():
            # Crash markers are node-level; annotate every lane whose
            # process the trace later shows rolling back at that node's
            # restart — simplest faithful choice: mark all lanes.
            _place(lane, priorities[pid], column(rec.time), "X")

    label_width = max(len(str(pid)) for pid in processes) + 1
    lines = [f"t ∈ [{since:.1f}, {until:.1f}]  "
             f"(░ clean  ▓ potentially contaminated  1/2/P volatile ckpt  "
             f"S stable ckpt  A acceptance test  ! AT failure  R rollback  "
             f"X crash)"]
    for pid in processes:
        lines.append(f"{str(pid):>{label_width}} |{''.join(lanes[pid])}|")
    return "\n".join(lines)


def demo_timeline(scheme: Scheme, seed: int = 11, since: float = 100.0,
                  until: float = 1_900.0, width: int = 100) -> str:
    """Run the figures' light workload for 2 000 s under ``scheme`` and
    render its lanes over ``[since, until]`` (``P1_act`` shaded by its
    pseudo dirty bit where the scheme runs the modified MDCD)."""
    horizon = 2_000.0
    system = build_system(SystemConfig(
        scheme=scheme, seed=seed, horizon=horizon,
        workload1=WorkloadConfig(internal_rate=0.02, external_rate=0.004,
                                 step_rate=0.01, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.01, external_rate=0.004,
                                 step_rate=0.01, horizon=horizon)))
    system.run()
    pseudo = (ProcessId(Role.ACTIVE_1.value)
              if scheme.uses_modified_mdcd else None)
    return render_timeline(system.trace,
                           [p.process_id for p in system.process_list()],
                           since=since, until=until, width=width,
                           pseudo_for=pseudo)
