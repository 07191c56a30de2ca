"""Per-layer attribution: span recorder, traced rounds, layer probes.

Every number here is taken **from outside** the system: by timing a
call into a public function (``build_audit_system``, ``OnlineAuditor``,
``WarmRunner``, ``FlockRunner``, ``run_audit``, ``encode_frame`` /
``FrameReader``, ``SnapshotEncoder``, ``Simulator``), by timestamping
the campaign's public ``log=`` callback, or by reading the counters a
public call returns (``AuditReport.warmstart``, store ``bytes_written``,
``sim.events_executed``).  Nothing under ``src/`` is patched.

Layer names are module names: ``sim``, ``coordination``, ``engines``
(mdcd + tb + coordination logic, seen as one run of the bare protocol),
``audit``, ``snapshot``, ``warmstart``, ``flock``, ``fabric``,
``runtime`` (the wire), ``parallel``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.audit import (
    FaultSchedule,
    OnlineAuditor,
    build_audit_system,
    run_audit,
    shrink_schedule,
)
from repro.audit.campaign import SHRINK_MAX_REPLAYS
from repro.coordination.scheme import build_system
from repro.errors import AuditViolation
from repro.flock import FlockRunner
from repro.runtime.wire import FrameReader, encode_frame
from repro.sim.kernel import Simulator
from repro.snapshot import SnapshotEncoder, decode_payload
from repro.warmstart import ImageStore, WarmRunner

import measure
import workloads

#: Passes over the differential sample (bare / traced / audited).
SAMPLE_PASSES = 2
#: Untraced and traced rounds of a traced run (interleaved).
TRACE_ROUNDS = 3
#: Events of the bare-kernel churn probe.
CHURN_EVENTS = 100_000


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: ``name, start, end, parent`` and one ``trace``
    id per schedule; written out when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: Any = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        index = len(self.spans)
        record = {"id": index, "name": name, "trace": trace,
                  "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere (log timestamps), under the open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({
            "id": len(self.spans), "name": name,
            "trace": self.spans[parent]["trace"] if parent is not None else None,
            "parent": parent, "start": start, "end": end})

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, children's time taken out."""
        inner = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                inner[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, covered in zip(self.spans, inner):
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


# ----------------------------------------------------------------------
# traced rounds: the same campaign, driven span by span
# ----------------------------------------------------------------------
def _content(schedules: List[FaultSchedule], outcomes: List[Any],
             shrunk: List[Dict]) -> Dict[str, Any]:
    """Findings lists / exceptions per schedule, shaped like
    ``measure.report_content`` of the untraced campaign."""
    violations, errors = [], []
    for sched, outcome in zip(schedules, outcomes):
        if isinstance(outcome, Exception):
            errors.append({"schedule": sched.to_dict(),
                           "error": f"{type(outcome).__name__}: {outcome}"})
        elif outcome:
            violations.append({"schedule": sched.to_dict(),
                               "findings": [f.to_dict() for f in outcome]})
    return {"schedules_run": len(schedules), "violations": violations,
            "errors": errors, "shrunk": shrunk}


def _traced_cold(prepared: workloads.Prepared, rec: SpanRecorder, _workdir):
    config = prepared.config
    outcomes: List[Any] = []
    for index, sched in enumerate(prepared.schedules):
        with rec.span("audit.schedule", trace=index):
            try:
                with rec.span("coordination.build_audit_system"):
                    system = build_audit_system(config, sched)
                with rec.span("audit.attach"):
                    auditor = OnlineAuditor(
                        system, fail_fast=True,
                        include_ground_truth=config.include_ground_truth)
                with rec.span("sim.run"):
                    with contextlib.suppress(AuditViolation):
                        system.run()
                with rec.span("audit.finalize"):
                    with contextlib.suppress(AuditViolation):
                        auditor.finalize()
                outcomes.append(auditor.findings)
            except Exception as exc:  # a crashed replay is a campaign error
                outcomes.append(exc)
    return _content(prepared.schedules, outcomes, []), None


def _traced_warm(prepared: workloads.Prepared, rec: SpanRecorder, _workdir):
    config, schedules = prepared.config, prepared.schedules
    runner = WarmRunner(config, store=ImageStore(),
                        timeline=prepared.timeline)
    runner.plan(schedules)
    outcomes: List[Any] = []
    for index, sched in enumerate(schedules):
        with rec.span("warmstart.schedule", trace=index):
            try:
                with rec.span("warmstart.ensure_images"):
                    runner.ensure_images(sched)
                with rec.span("warmstart.audit_schedule"):
                    outcomes.append(runner.audit_schedule(sched,
                                                          fail_fast=True))
            except Exception as exc:
                outcomes.append(exc)
    content = _content(schedules, outcomes, [])

    def replay(candidate: FaultSchedule) -> bool:
        with rec.span("warmstart.replay"):
            return runner.violates(candidate)

    for entry in content["violations"]:
        original = FaultSchedule.from_dict(entry["schedule"])
        with rec.span("audit.shrink", trace=original.label):
            with rec.span("warmstart.ensure_images"):
                runner.ensure_images(original, force=True)
            result = shrink_schedule(original, violates=replay,
                                     horizon=config.horizon,
                                     max_replays=SHRINK_MAX_REPLAYS)
        if result.violated:
            content["shrunk"].append({
                "original": original.label,
                "schedule": result.schedule.to_dict(),
                "replays": result.replays,
                "cache_hits": result.cache_hits})
    return content, runner.stats()


def _traced_flock(prepared: workloads.Prepared, rec: SpanRecorder, _workdir):
    config, schedules = prepared.config, prepared.schedules
    runner = FlockRunner(config, store=ImageStore(),
                         timeline=prepared.timeline,
                         fork_batch=config.fork_batch)
    runner.plan(schedules)
    outcomes: List[Any] = [None] * len(schedules)
    for group in runner.groups(schedules):
        for index in group:
            with rec.span("flock.schedule", trace=index):
                try:
                    outcomes[index] = runner.audit_schedule(
                        schedules[index], fail_fast=True)
                except Exception as exc:
                    outcomes[index] = exc
    return _content(schedules, outcomes, []), runner.stats()


def _traced_fabric(prepared: workloads.Prepared, rec: SpanRecorder, workdir):
    """The fabric runs in other processes: its spans come from the
    timestamps of the campaign's own progress log."""
    stamps: List[Any] = []
    begin = time.perf_counter()
    report = workloads.run_round(
        prepared, workdir,
        log=lambda msg: stamps.append((time.perf_counter(), msg)))
    end = time.perf_counter()

    def last(fragment: str, default: float) -> float:
        hits = [t for t, msg in stamps if fragment in msg]
        return hits[-1] if hits else default

    bound = last("fabric: supervising", begin)
    ready = last("joined from", bound)
    served = last("shards done", ready)
    rec.add("fabric.prepare", begin, bound)
    rec.add("fabric.spawn_to_ready", bound, ready)
    rec.add("fabric.dispatch", ready, served)
    rec.add("fabric.teardown", served, end)
    return measure.report_content(report), report.warmstart


TRACED_ROUND: Dict[str, Callable] = {
    "cold": _traced_cold, "warm": _traced_warm,
    "flock": _traced_flock, "fabric": _traced_fabric}


def traced_round(prepared: workloads.Prepared, rec: SpanRecorder,
                 workdir: str, number: int):
    """One campaign under the span recorder; ``(content, stats)``."""
    with rec.span("round", trace=f"round-{number}"):
        return TRACED_ROUND[prepared.workload.kind](prepared, rec, workdir)


# ----------------------------------------------------------------------
# differential sample: bare vs traced vs audited runs
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], Any]):
    """``(value, seconds)`` of one call; an ``AuditViolation`` ends the
    call early (fail-fast audits record the finding, then raise)."""
    value = None
    begin = time.perf_counter()
    with contextlib.suppress(AuditViolation):
        value = fn()
    return value, time.perf_counter() - begin


def _node_bytes(system, store: str) -> int:
    return sum(getattr(node, store).bytes_written
               for node in system.nodes.values())


def differential_sample(prepared: workloads.Prepared,
                        metrics: Dict[str, float]):
    """Run a fixed sample three ways and fill the sim / coordination /
    engines / audit / snapshot-bytes metrics.  Returns the last audited
    system and the sample's result dicts (inputs of later probes)."""
    config = prepared.config
    sample = measure.sample_of(prepared.schedules)
    rows: List[Dict[str, List[float]]] = [
        {"build": [], "bare": [], "traced": [], "online": [], "finalize": []}
        for _ in sample]
    events = bare_events = checks = stable = volatile = 0
    system = None
    results: List[Dict] = []
    for final in (False,) * (SAMPLE_PASSES - 1) + (True,):
        for row, sched in zip(rows, sample):
            bare_cfg = dataclasses.replace(config.system_config(sched),
                                           trace_enabled=False)
            bare = build_system(bare_cfg)
            sched.arm(bare)
            row["bare"].append(_timed(bare.run)[1])
            bare_events += bare.sim.events_executed if final else 0

            traced = build_audit_system(config, sched)
            row["traced"].append(_timed(traced.run)[1])

            begin = time.perf_counter()
            system = build_audit_system(config, sched)
            row["build"].append(time.perf_counter() - begin)
            auditor = OnlineAuditor(
                system, fail_fast=True,
                include_ground_truth=config.include_ground_truth)
            row["online"].append(_timed(system.run)[1])
            row["finalize"].append(_timed(auditor.finalize)[1])
            if final:
                events += system.sim.events_executed
                checks += auditor.epochs_checked + auditor.live_checks
                stable += _node_bytes(system, "stable")
                volatile += _node_bytes(system, "volatile")
                results.append({
                    "schedule": sched.to_dict(),
                    "violated": bool(auditor.findings),
                    "findings": [f.to_dict() for f in auditor.findings],
                    "error": None})

    def mean_ms(key: str) -> float:
        return 1e3 * statistics.mean(statistics.median(row[key])
                                     for row in rows)

    n = len(sample)
    bare_ms = mean_ms("bare")
    metrics["sim.events_per_schedule"] = events / n
    metrics["sim.us_per_event"] = 1e3 * bare_ms * n / bare_events
    metrics["coordination.build_system_ms"] = mean_ms("build")
    metrics["engines.bare_run_ms"] = bare_ms
    metrics["engines.traced_run_ms"] = mean_ms("traced")
    metrics["audit.online_run_ms"] = mean_ms("online")
    metrics["audit.overhead_ratio"] = metrics["audit.online_run_ms"] / bare_ms
    metrics["audit.finalize_ms"] = mean_ms("finalize")
    metrics["audit.checks_per_schedule"] = checks / n
    metrics["snapshot.stable_bytes_per_schedule"] = stable / n
    metrics["snapshot.volatile_bytes_per_schedule"] = volatile / n
    return system, results


# ----------------------------------------------------------------------
# micro probes
# ----------------------------------------------------------------------
def kernel_churn(metrics: Dict[str, float]) -> None:
    """A bare ``Simulator`` schedule/run loop: 1000 self-rescheduling
    timers with fixed, distinct periods."""
    sim = Simulator()

    def tick(period: float) -> None:
        sim.schedule_after(period, tick, args=(period,))

    for k in range(1000):
        sim.schedule_at(0.0, tick, args=(1.0 + k / 1000.0,))
    _, seconds = _timed(lambda: sim.run(max_events=CHURN_EVENTS))
    metrics["sim.kernel_churn_events_per_s"] = sim.events_executed / seconds


def snapshot_codec(system, metrics: Dict[str, float], reps: int = 15) -> None:
    """Full-section encode and decode of every process snapshot of a
    finished system."""
    snapshots = [proc.make_snapshot() for proc in system.process_list()]
    encode: List[float] = []
    decode: List[float] = []
    for _ in range(reps):
        payloads, seconds = _timed(
            lambda: [SnapshotEncoder().encode_snapshot(s) for s in snapshots])
        encode.append(seconds / len(snapshots))
        _, seconds = _timed(lambda: [decode_payload(p) for p in payloads])
        decode.append(seconds / len(snapshots))
    metrics["snapshot.encode_us_per_capture"] = 1e6 * statistics.median(encode)
    metrics["snapshot.decode_us_per_restore"] = 1e6 * statistics.median(decode)


def wire_codec(results: List[Dict], metrics: Dict[str, float],
               frames: int = 100, reps: int = 7) -> None:
    """Encode and decode of one recorded shard-result body."""
    body = {"type": "result", "shard": 0,
            "results": results[:workloads.FABRIC_SHARD_SIZE],
            "stats": {"worker": "w0", "shards": 1, "schedules": 4}}
    data = encode_frame(body)
    encode: List[float] = []
    decode: List[float] = []
    for _ in range(reps):
        _, seconds = _timed(lambda: [encode_frame(body)
                                     for _ in range(frames)])
        encode.append(seconds / frames)
        reader = FrameReader()
        bodies, seconds = _timed(lambda: [reader.feed(data)
                                          for _ in range(frames)])
        if any(got != [body] for got in bodies):
            raise RuntimeError("wire round-trip altered a frame body")
        decode.append(seconds / frames)
    metrics["runtime.wire_encode_us_per_frame"] = 1e6 * statistics.median(encode)
    metrics["runtime.wire_decode_us_per_frame"] = 1e6 * statistics.median(decode)


# ----------------------------------------------------------------------
# counters a campaign returns
# ----------------------------------------------------------------------
def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


#: Counter-derived metrics per layer; zero on a workload that bypasses
#: the layer, which is the claim that row makes.
WARM_METRICS = ("warmstart.build_s_per_set", "warmstart.decode_ms_per_schedule",
                "warmstart.run_ms_per_schedule", "warmstart.decode_share",
                "warmstart.image_bytes", "warmstart.hit_share")
FLOCK_METRICS = ("flock.template_s", "flock.fork_ms_per_schedule",
                 "flock.run_ms_per_schedule", "flock.dump_encode_ms",
                 "flock.dumps", "flock.forks_per_dump", "flock.dump_bytes")
FABRIC_METRICS = ("fabric.serve_s", "fabric.shards", "fabric.steals",
                  "fabric.requeues", "fabric.cas_bytes_written")


def campaign_counters(kind: str, stats: List[Optional[Dict]],
                      schedules: int, metrics: Dict[str, float]) -> None:
    """Warm-start / flock / fabric metrics from the stats dicts the
    untraced rounds returned (median over rounds)."""
    def med(fn: Callable[[Dict], float]) -> float:
        return statistics.median(fn(s) for s in stats)

    metrics.update(dict.fromkeys(
        WARM_METRICS + FLOCK_METRICS + FABRIC_METRICS, 0.0))
    if kind == "warm":
        def runs(s: Dict) -> float:
            return s["warm_runs"] + s["cold_runs"]

        def busy(s: Dict) -> float:
            return s["build_seconds"] + s["decode_seconds"] + s["run_seconds"]

        metrics.update({
            "warmstart.build_s_per_set": med(
                lambda s: _per(s["build_seconds"], s["sets_built"])),
            "warmstart.decode_ms_per_schedule": med(
                lambda s: 1e3 * _per(s["decode_seconds"], s["warm_runs"])),
            "warmstart.run_ms_per_schedule": med(
                lambda s: 1e3 * _per(s["run_seconds"], runs(s))),
            "warmstart.decode_share": med(
                lambda s: _per(s["decode_seconds"], busy(s))),
            "warmstart.image_bytes": med(lambda s: s["bytes"]),
            "warmstart.hit_share": med(
                lambda s: _per(s["warm_runs"], runs(s))),
        })
    elif kind == "flock":
        metrics.update({
            "flock.template_s": med(
                lambda s: (s["build_seconds"] + s["decode_seconds"]
                           + s["advance_seconds"])),
            "flock.fork_ms_per_schedule": med(
                lambda s: 1e3 * _per(s["fork_seconds"], s["flock_runs"])),
            "flock.run_ms_per_schedule": med(
                lambda s: 1e3 * _per(s["run_seconds"], schedules)),
            "flock.dump_encode_ms": med(
                lambda s: 1e3 * s["dump_encode_seconds"]),
            "flock.dumps": med(lambda s: s["dumps"]),
            "flock.forks_per_dump": med(
                lambda s: _per(s["forks"], s["dumps"])),
            "flock.dump_bytes": med(lambda s: s["dump_bytes"]),
            "warmstart.image_bytes": med(lambda s: s["bytes"]),
        })
    elif kind == "fabric":
        metrics.update({
            "fabric.serve_s": med(lambda s: s["serve_seconds"]),
            "fabric.shards": med(lambda s: s["shards"]),
            "fabric.steals": med(lambda s: s["steals"]),
            "fabric.requeues": med(lambda s: s["requeues"]),
            "fabric.cas_bytes_written": med(
                lambda s: s["cas"]["bytes_written"]),
        })


def fabric_reference(prepared: workloads.Prepared, fabric_wall: float,
                     shards: float, metrics: Dict[str, float]) -> None:
    """The same schedules serially and through the local pool (the
    other supervisor): what the fabric's dispatch costs per shard."""
    names = ("fabric.overhead_ms_per_shard", "fabric.parallel_efficiency",
             "parallel.pool_schedules_per_s")
    if prepared.workload.kind != "fabric":
        metrics.update(dict.fromkeys(names, 0.0))
        return
    config, schedules = prepared.config, prepared.schedules
    workers = workloads.FABRIC_WORKERS
    _, serial = _timed(lambda: run_audit(config, schedules=schedules,
                                         timeline=prepared.timeline))
    _, pooled = _timed(lambda: run_audit(config, schedules=schedules,
                                         timeline=prepared.timeline,
                                         workers=workers))
    metrics[names[0]] = 1e3 * (fabric_wall * workers - serial) / shards
    metrics[names[1]] = serial / (workers * fabric_wall)
    metrics[names[2]] = len(schedules) / pooled
