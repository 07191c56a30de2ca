"""Round loop, result gate and host facts of the campaign ledger.

A run is one untimed warm-up round followed by timed rounds of
identical fixed work; every timing the benchmark reports is the
**median over rounds** (or over set-up repetitions), never a sum or a
single shot.  ``gc.collect()`` and the calibration loop run between
rounds, outside the timer; end-to-end timings are expressed at the
reference speed that loop defines, because the reference host's speed
moves by tens of percent in phases longer than a run (a workload
computed in other processes opts out: ``Workload.calibrated``).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import pickle
import platform
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

from repro.audit import audit_schedule

import workloads

#: Schedules of the per-seed findings check against cold replays.
SAMPLE = 16
#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPS = 15
#: A time-boxed run never stops before this many timed rounds.
MIN_ROUNDS = 5
#: What :func:`calibrate` usually takes on the 2-core reference host.
CALIB_REF_S = 0.050


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """CPU consumed so far by this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def rss_mib() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


class _Event:
    __slots__ = ("time", "seq", "data")

    def __init__(self, time: float, seq: int, data: Any) -> None:
        self.time, self.seq, self.data = time, seq, data

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def calibrate(events: int = 12000) -> float:
    """Seconds a frozen miniature of the system takes right now: an
    event heap of small objects, per-process journals and dicts, and a
    pickled snapshot every 600 events.

    This loop is the benchmark's clock for the host's speed.  It uses
    nothing from ``src/`` and must never change: every timing the
    ledger gates on is expressed relative to it (see
    :func:`reference_seconds`).
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection's cost depends on what the process holds
    try:
        begin = time.perf_counter()
        heap: List[_Event] = []
        journals: Dict[int, List] = {p: [] for p in range(6)}
        state = {p: {"sn": 0, "dirty": False, "log": {}} for p in range(6)}
        seq = 0
        for p in range(6):
            for k in range(20):
                heapq.heappush(heap, _Event(0.1 * k + 0.01 * p, seq, (p, k)))
                seq += 1
        snapshots: List[bytes] = []
        for done in range(1, events + 1):
            event = heapq.heappop(heap)
            p, k = event.data
            own = state[p]
            own["sn"] += 1
            own["dirty"] = own["sn"] % 7 == 0
            journal = journals[p]
            journal.append((event.time, own["sn"], "m%d" % own["sn"],
                            {"from": p, "to": (p + 1) % 6}))
            own["log"][own["sn"] % 64] = (event.time, k)
            if len(journal) > 400:
                del journal[:200]
            heapq.heappush(heap, _Event(event.time + 0.37 + 0.01 * p, seq,
                                        (p, k + 1)))
            seq += 1
            if done % 600 == 0:
                snapshots.append(pickle.dumps(
                    {"state": state, "journals": journals},
                    protocol=pickle.HIGHEST_PROTOCOL))
                if len(snapshots) > 4:
                    pickle.loads(snapshots.pop(0))
        return time.perf_counter() - begin
    finally:
        if collecting:
            gc.enable()


def reference_seconds(seconds: float, calib_before: float,
                      calib_after: float) -> float:
    """``seconds`` rescaled to the speed at which :func:`calibrate`
    takes :data:`CALIB_REF_S`, given the
    calibrations taken right before and after the timed work."""
    return seconds * CALIB_REF_S / ((calib_before + calib_after) / 2.0)


def commit_id(root: str) -> str:
    """The checked-out commit, read from ``.git`` without a subprocess
    (``unknown`` in an exported tree)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), "r",
                      encoding="ascii") as fh:
                ref = fh.read().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def environment(root: str, calib_ms: float) -> Dict[str, Any]:
    """The block every output carries."""
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(root),
        "host.calib_ms": round(calib_ms, 3),
    }


# ----------------------------------------------------------------------
# result gate
# ----------------------------------------------------------------------
def report_content(report) -> Dict[str, Any]:
    """What a round computed, stripped of timings and counters."""
    return {"schedules_run": report.schedules_run,
            "violations": report.violations,
            "errors": report.errors,
            "shrunk": report.shrunk}


def content_digest(content: Any) -> str:
    """Canonical sha256 of one round's results (or of the inputs)."""
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def inputs_digest(prepared: workloads.Prepared) -> str:
    """What the seed made: the campaign config and every schedule.  A
    clean campaign's results say little more than "N clean", so the
    pinned gate covers the inputs as well."""
    return content_digest({
        "config": prepared.config.to_dict(),
        "schedules": [s.to_dict() for s in prepared.schedules]})


def sample_of(schedules: List, size: int = SAMPLE) -> List:
    """An even spread of ``size`` schedules."""
    stride = max(1, len(schedules) // size)
    return schedules[::stride][:size]


def sample_mismatches(prepared: workloads.Prepared,
                      content: Dict[str, Any]) -> List[str]:
    """Labels of sampled schedules whose round result differs from a
    public cold ``audit_schedule`` replay."""
    violated = {v["schedule"]["label"]: v["findings"]
                for v in content["violations"]}
    errored = {e["schedule"]["label"] for e in content["errors"]}
    wrong: List[str] = []
    for sched in sample_of(prepared.schedules):
        try:
            findings = [f.to_dict() for f in
                        audit_schedule(prepared.config, sched, fail_fast=True)]
        except Exception:  # the campaign reports a crashed replay as an error
            if sched.label not in errored:
                wrong.append(sched.label)
            continue
        if sched.label in errored or violated.get(sched.label, []) != findings:
            wrong.append(sched.label)
    return wrong


# ----------------------------------------------------------------------
# set-up and rounds
# ----------------------------------------------------------------------
def timed_setup(name: str, seed: int, scale: float,
                reps: int = SETUP_REPS):
    """Prepare the workload ``reps`` times with nothing carried over.
    Returns the last product and every repetition's seconds, as
    measured and at reference speed."""
    raw: List[float] = []
    reference: List[float] = []
    prepared = None
    calib = calibrate()
    for _ in range(reps):
        gc.collect()
        begin = time.perf_counter()
        prepared = workloads.prepare(name, seed, scale)
        raw.append(time.perf_counter() - begin)
        before, calib = calib, calibrate()
        reference.append(reference_seconds(raw[-1], before, calib))
    return prepared, raw, reference


class Rounds:
    """Per-round measurements of one run."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self.calib: List[float] = []
        self.rss: List[float] = []
        self.digests: List[str] = []
        #: Counters each round's campaign returned (``None`` when cold).
        self.stats: List[Optional[Dict]] = []
        #: The first round's results (the others must digest the same).
        self.content: Optional[Dict[str, Any]] = None
        #: Seconds of the untimed warm-up round: where lazy set-up a
        #: later change adds would land (printed as a diagnostic).
        self.warmup_s = 0.0

    def timed(self, one_round: Callable[[], Any]) -> None:
        """Run ``one_round() -> (content, stats)`` once, timed, with the
        collector and the calibration loop outside the timer.  The
        calibration after one round is the one before the next."""
        gc.collect()
        if not self.calib:
            self.calib.append(calibrate())
        cpu0 = cpu_seconds()
        begin = time.perf_counter()
        content, stats = one_round()
        self.wall.append(time.perf_counter() - begin)
        self.cpu.append(cpu_seconds() - cpu0)
        self.calib.append(calibrate())
        self.rss.append(rss_mib())
        self.digests.append(content_digest(content))
        self.stats.append(stats)
        if self.content is None:
            self.content = content

    def reference(self, seconds: List[float]) -> List[float]:
        """Per-round ``seconds`` (wall or CPU) at reference speed."""
        return [reference_seconds(value, before, after)
                for value, before, after
                in zip(seconds, self.calib, self.calib[1:])]


def failed_schedules(content: Dict[str, Any], digests: List[str],
                     schedules: int) -> int:
    """Schedules that errored or went missing, plus every schedule of a
    round whose results differ from the first round's ``content``."""
    lost = len(content["errors"]) + max(0, schedules - content["schedules_run"])
    same = digests.count(digests[0])
    return lost * same + schedules * (len(digests) - same)


def untraced_round(prepared: workloads.Prepared, workdir: str):
    """One campaign through ``run_audit``; ``(content, stats)``."""
    report = workloads.run_round(prepared, workdir)
    return report_content(report), report.warmstart


def run_rounds(one_round: Callable[[], Any], *, seconds: float,
               rounds: Optional[int] = None) -> Rounds:
    """One untimed warm-up round (lazy imports, allocator pools), then
    timed rounds: exactly ``rounds`` of them when given, otherwise
    as many whole rounds as come closest to ``seconds`` of timed work
    (at least :data:`MIN_ROUNDS`)."""
    out = Rounds()
    begin = time.perf_counter()
    one_round()
    out.warmup_s = time.perf_counter() - begin
    while True:
        out.timed(one_round)
        done = len(out.wall)
        if rounds is not None:
            if done >= rounds:
                return out
        elif done >= MIN_ROUNDS and (
                sum(out.wall) + statistics.median(out.wall) / 2.0 >= seconds):
            return out  # one more round would miss ``seconds`` by more


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)
