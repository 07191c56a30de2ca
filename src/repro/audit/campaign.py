"""Audit campaigns: fan schedules out over workers, shrink violations.

The worker function is module-level and takes/returns plain dicts, so
:func:`repro.parallel.parallel_map` can ship it across process
boundaries (and degrade to in-process execution transparently).  Each
worker rebuilds the system from the :class:`AuditConfig` plus one
:class:`FaultSchedule` — both fully serializable — so a campaign is
deterministic regardless of worker count or placement.

Shrinking runs in the coordinator (each shrink step is a full replay of
one schedule, already fast); the shrunk minimal schedules are written
into the JSON artifact next to the raw violations so a failing CI run
uploads directly replayable counterexamples.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Dict, List, Optional

from ..errors import AuditViolation
from ..parallel import parallel_map
from .auditor import AuditFinding, OnlineAuditor
from .config import AuditConfig
from .generator import generate_schedules, reference_timeline
from .mutations import plant_mutation
from .schedule import FaultSchedule
from .shrink import ShrinkResult, shrink_schedule

#: Replay budget for shrinking one violating schedule.
SHRINK_MAX_REPLAYS = 60


def build_audit_system(config: AuditConfig, schedule: FaultSchedule):
    """Build (and mutate, and arm — but not start) one audited system."""
    from ..coordination.scheme import build_system
    system = build_system(config.system_config(schedule))
    if config.mutation is not None:
        plant_mutation(system, config.mutation)
    schedule.arm(system)
    return system


def audit_schedule(config: AuditConfig, schedule: FaultSchedule,
                   fail_fast: bool = True) -> List[AuditFinding]:
    """Run one schedule under the online auditor; returns its findings.

    ``fail_fast`` stops the simulation at the first violation (the
    campaign's mode); ``fail_fast=False`` runs to the horizon and
    collects every finding (the replay/diagnosis mode).
    """
    system = build_audit_system(config, schedule)
    auditor = OnlineAuditor(system, fail_fast=fail_fast,
                            include_ground_truth=config.include_ground_truth)
    try:
        system.run()
    except AuditViolation:
        pass  # the finding is already recorded
    try:
        auditor.finalize()
    except AuditViolation:
        pass  # end-of-run oracle fired; likewise recorded
    system.release()
    return auditor.findings


def schedule_violates(config: AuditConfig, schedule: FaultSchedule) -> bool:
    """The shrinker's predicate: does this schedule violate at all?

    A replay that *crashes* the simulator (an unmodelled corner a
    mutated candidate can reach, e.g. a crash pinned exactly onto a
    recovery action) counts as non-violating: the shrinker must only
    walk through candidates whose violation is an invariant finding.
    """
    try:
        return bool(audit_schedule(config, schedule, fail_fast=True))
    except Exception:
        return False


def _run_one_schedule(item) -> Dict:
    """Worker: audit one ``(config_dict, schedule_dict)`` pair."""
    config_dict, schedule_dict = item
    config = AuditConfig.from_dict(config_dict)
    schedule = FaultSchedule.from_dict(schedule_dict)
    try:
        findings = audit_schedule(config, schedule, fail_fast=True)
    except Exception as exc:  # simulation bug — report, don't kill the pool
        return {"schedule": schedule.to_dict(), "violated": False,
                "findings": [], "error": f"{type(exc).__name__}: {exc}"}
    return {"schedule": schedule.to_dict(),
            "violated": bool(findings),
            "findings": [f.to_dict() for f in findings],
            "error": None}


@dataclasses.dataclass
class AuditReport:
    """Outcome of one audit campaign."""

    config: AuditConfig
    schedules_run: int
    #: ``[{"schedule": ..., "findings": [...]}]`` for each violator.
    violations: List[Dict]
    #: ``[{"schedule": ..., "error": "..."}]`` for crashed replays.
    errors: List[Dict]
    #: ``[{"original": label, "schedule": ..., "replays": n}]``.
    shrunk: List[Dict]
    wall_seconds: float
    #: Warm-start execution counters (``None`` for cold campaigns).
    warmstart: Optional[Dict] = None

    @property
    def clean(self) -> bool:
        """No violations and no worker errors."""
        return not self.violations and not self.errors

    def to_dict(self) -> Dict:
        return {
            "config": self.config.to_dict(),
            "fingerprint": self.config.fingerprint(),
            "schedules_run": self.schedules_run,
            "violations": self.violations,
            "errors": self.errors,
            "shrunk": self.shrunk,
            "wall_seconds": self.wall_seconds,
            "warmstart": self.warmstart,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AuditReport":
        return cls(config=AuditConfig.from_dict(data["config"]),
                   schedules_run=int(data["schedules_run"]),
                   violations=list(data.get("violations", ())),
                   errors=list(data.get("errors", ())),
                   shrunk=list(data.get("shrunk", ())),
                   wall_seconds=float(data.get("wall_seconds", 0.0)),
                   warmstart=data.get("warmstart"))


def _run_warm_serial(runner, config: AuditConfig,
                     schedules: List[FaultSchedule]) -> List[Dict]:
    """Coordinator-side warm loop (same result dicts as the worker)."""
    results: List[Dict] = []
    for schedule in schedules:
        try:
            findings = runner.audit_schedule(schedule, fail_fast=True)
        except Exception as exc:
            results.append({"schedule": schedule.to_dict(), "violated": False,
                            "findings": [],
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"schedule": schedule.to_dict(),
                        "violated": bool(findings),
                        "findings": [f.to_dict() for f in findings],
                        "error": None})
    return results


def run_audit(config: AuditConfig, workers: Optional[int] = None,
              shrink: bool = False,
              schedules: Optional[List[FaultSchedule]] = None,
              log: Optional[Callable[[str], None]] = None,
              warmstart: bool = False,
              image_store=None,
              timeline=None,
              flock: Optional[bool] = None,
              fork_batch: Optional[int] = None,
              fabric: Optional[int] = None,
              fabric_opts: Optional[Dict] = None) -> AuditReport:
    """Run a full campaign: generate, fan out, optionally shrink.

    ``warmstart=True`` executes schedules by prefix-resume from
    full-system reference images (:mod:`repro.warmstart`) wherever a
    usable image exists, falling back to cold replay otherwise — the
    findings are identical either way.  Warm-start pays off when
    schedules share a ``(seed, overrides)`` prefix (see
    ``repro.warmstart.share_schedule_seeds``) and always pays off for
    shrinking, whose replays all share the violator's prefix.  The
    reference timeline is computed at most once per campaign and
    threaded into generation and image capture; callers that already
    have it pass ``timeline``.

    ``flock`` (default: ``config.flock``) switches execution to
    suffix-fork batching (:mod:`repro.flock`): each prefix group keeps
    ONE resident template — thawed once from a warm-start image when
    ``warmstart`` is also on, otherwise built directly from the
    reference — and forks per-schedule copies from it.  Results stay
    bit-for-bit identical to warm and cold.  ``fork_batch`` (default:
    ``config.fork_batch``) shards large groups across workers.

    ``fabric`` dispatches execution over the multi-host campaign
    fabric (:mod:`repro.fabric`) instead of an in-process pool: the
    value is how many local worker *processes* to spawn (``0`` serves
    externally-started workers only).  The flock/warm flags choose the
    fabric's execution mode exactly as they do locally, and the
    results — hence violations, errors, shrunk forms — are bit-for-bit
    identical.  ``fabric_opts`` passes through to
    :func:`repro.fabric.run_fabric_campaign` (``journal=``,
    ``cas_dir=``, ``fabric=FabricConfig(...)``, ...).
    """
    emit = log or (lambda _msg: None)
    start = time.monotonic()
    use_flock = config.flock if flock is None else bool(flock)
    batch = config.fork_batch if fork_batch is None else int(fork_batch)
    if timeline is None and (schedules is None or warmstart):
        timeline = reference_timeline(config)
    if schedules is None:
        schedules = generate_schedules(config, timeline=timeline)
    mode = "flock" if use_flock else ("warm" if warmstart else "cold")
    emit(f"auditing {len(schedules)} schedules "
         f"(scheme={config.scheme}, seed={config.seed}, "
         f"workers={workers or 1}, mode={mode})")

    config_dict = config.to_dict()
    runner = None
    flock_runner = None
    builder = None
    fabric_stats: Optional[Dict] = None
    cleanup_root: Optional[str] = None
    if fabric is not None:
        pass  # the supervisor owns planning, stores, and image builds
    elif use_flock:
        from ..flock import FlockRunner
        store = image_store
        if warmstart and workers is not None and workers > 1 and (
                store is None or store.root is None):
            # Workers thaw their shard's template through the filesystem.
            import tempfile
            from ..warmstart import ImageStore
            cleanup_root = tempfile.mkdtemp(prefix="repro-flock-")
            store = ImageStore(root=cleanup_root)
        flock_runner = FlockRunner(config, store=store, timeline=timeline,
                                   fork_batch=batch)
        flock_runner.plan(schedules)
    elif warmstart:
        from ..warmstart import ImageStore, WarmRunner
        store = image_store
        if workers is not None and workers > 1 and (
                store is None or store.root is None):
            # Workers consume images through the filesystem.
            import tempfile
            cleanup_root = tempfile.mkdtemp(prefix="repro-warmstart-")
            store = ImageStore(root=cleanup_root)
        runner = WarmRunner(config, store=store, timeline=timeline)
        runner.plan(schedules)

    try:
        if fabric is not None:
            from ..fabric import run_fabric_campaign
            results, fabric_stats = run_fabric_campaign(
                config, schedules, mode=mode, workers=fabric,
                fork_batch=batch, timeline=timeline, log=emit,
                **(fabric_opts or {}))
        elif flock_runner is not None and workers is not None and workers > 1:
            from ..flock import _run_flock_shard
            root = None
            if warmstart and flock_runner.store is not None:
                # Build each shared prefix's image set once; workers
                # decode each image at most once per shard.
                from ..warmstart import WarmRunner
                builder = WarmRunner(config, store=flock_runner.store,
                                     timeline=timeline)
                builder.plan(schedules)
                built = set()
                for sched in schedules:
                    digest = builder._key(sched).digest()
                    if digest not in built:
                        built.add(digest)
                        builder.ensure_images(sched)
                if flock_runner.store.root is not None:
                    root = str(flock_runner.store.root)
            shards = flock_runner.shards(schedules)
            items = [(config_dict,
                      [schedules[i].to_dict() for i in shard], root, batch)
                     for shard in shards]
            shard_results = parallel_map(_run_flock_shard, items,
                                         workers=workers)
            ordered: List[Optional[Dict]] = [None] * len(schedules)
            for shard, outcome in zip(shards, shard_results):
                for idx, result in zip(shard, outcome or ()):
                    ordered[idx] = result
            results = [r for r in ordered if r is not None]
        elif flock_runner is not None:
            results = flock_runner.run_batch(schedules)
        elif runner is not None and workers is not None and workers > 1:
            # Build each shared prefix once here, fan consumption out.
            from ..warmstart.engine import _run_one_schedule_warm
            built = set()
            for sched in schedules:
                digest = runner._key(sched).digest()
                if digest not in built:
                    built.add(digest)
                    runner.ensure_images(sched)
            items = [(config_dict, sched.to_dict(), str(runner.store.root))
                     for sched in schedules]
            results = parallel_map(_run_one_schedule_warm, items,
                                   workers=workers)
        elif runner is not None:
            results = _run_warm_serial(runner, config, schedules)
        else:
            items = [(config_dict, sched.to_dict()) for sched in schedules]
            results = parallel_map(_run_one_schedule, items, workers=workers)

        violations: List[Dict] = []
        errors: List[Dict] = []
        for result in results:
            if result.get("error"):
                errors.append({"schedule": result["schedule"],
                               "error": result["error"]})
            elif result["violated"]:
                violations.append({"schedule": result["schedule"],
                                   "findings": result["findings"]})

        shrunk: List[Dict] = []
        if shrink and violations:
            for entry in violations:
                original = FaultSchedule.from_dict(entry["schedule"])
                emit(f"shrinking {original.describe()}")
                if flock_runner is not None:
                    # Candidates keep subsets of the violator's faults:
                    # one resident template, pre-dumped at its fault
                    # instants, serves every replay.
                    flock_runner.ensure_template(original)
                    predicate = flock_runner.violates
                elif runner is not None:
                    # Every shrink candidate shares the violator's
                    # prefix: always worth a reference image set.
                    runner.ensure_images(original, force=True)
                    predicate = runner.violates
                else:
                    predicate = lambda s: schedule_violates(config, s)  # noqa: E731
                result: ShrinkResult = shrink_schedule(
                    original,
                    violates=predicate,
                    horizon=config.horizon,
                    max_replays=SHRINK_MAX_REPLAYS)
                if result.violated:
                    emit(f"  -> {result.schedule.describe()} "
                         f"({result.replays} replays, "
                         f"{result.cache_hits} memo hits)")
                    shrunk.append({"original": original.label,
                                   "schedule": result.schedule.to_dict(),
                                   "replays": result.replays,
                                   "cache_hits": result.cache_hits})
    finally:
        if cleanup_root is not None:
            import shutil
            shutil.rmtree(cleanup_root, ignore_errors=True)

    warm_stats = None
    if fabric_stats is not None:
        warm_stats = fabric_stats
        emit(f"fabric: {fabric_stats['shards']} shards over "
             f"{len(fabric_stats['workers'])} workers, "
             f"{fabric_stats['steals']} steals, "
             f"{fabric_stats['requeues']} requeues, "
             f"{fabric_stats['recovered_shards']} recovered from journal")
    elif flock_runner is not None:
        warm_stats = flock_runner.stats()
        warm_stats["mode"] = "flock"
        warm_stats["fork_batch"] = batch
        if builder is not None:
            warm_stats["sets_built"] = builder.sets_built
            warm_stats["image_build_seconds"] = round(
                builder.build_seconds, 6)
        if workers is not None and workers > 1:
            warm_stats["worker_flock_runs"] = sum(
                1 for r in results if r.get("flock"))
        emit(f"flock: {flock_runner.flock_runs} forked / "
             f"{flock_runner.cold_runs} cold coordinator runs, "
             f"{flock_runner.templates_built} templates "
             f"({flock_runner.fork_seconds:.2f}s forking)")
    elif runner is not None:
        warm_stats = runner.stats()
        if workers is not None and workers > 1:
            warm_stats["worker_warm_runs"] = sum(
                1 for r in results if r.get("warm"))
        emit(f"warmstart: {runner.warm_runs} warm / {runner.cold_runs} cold "
             f"coordinator runs, {runner.sets_built} image sets "
             f"({runner.build_seconds:.2f}s building)")

    return AuditReport(config=config, schedules_run=len(schedules),
                       violations=violations, errors=errors, shrunk=shrunk,
                       wall_seconds=time.monotonic() - start,
                       warmstart=warm_stats)


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------
def write_artifact(report: AuditReport, path: str) -> None:
    """Serialize a campaign report as a replayable JSON artifact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_artifact(path: str) -> AuditReport:
    """Load a campaign artifact written by :func:`write_artifact`."""
    with open(path, "r", encoding="utf-8") as fh:
        return AuditReport.from_dict(json.load(fh))


def artifact_schedules(report: AuditReport) -> List[FaultSchedule]:
    """The replayable schedules of an artifact: every shrunk minimal
    counterexample, plus the raw violators that have no shrunk form."""
    shrunk_labels = {entry["original"] for entry in report.shrunk}
    schedules = [FaultSchedule.from_dict(entry["schedule"])
                 for entry in report.shrunk]
    schedules += [FaultSchedule.from_dict(entry["schedule"])
                  for entry in report.violations
                  if entry["schedule"]["label"] not in shrunk_labels]
    return schedules


def format_audit_report(report: AuditReport) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"audit campaign: scheme={report.config.scheme} "
        f"seed={report.config.seed} schedules={report.schedules_run} "
        f"({report.wall_seconds:.1f}s)",
    ]
    if report.clean:
        lines.append("  PASS: no invariant violations")
        return "\n".join(lines)
    for entry in report.violations:
        sched = FaultSchedule.from_dict(entry["schedule"])
        lines.append(f"  VIOLATION {sched.describe()}")
        for finding in entry["findings"][:3]:
            f = AuditFinding.from_dict(finding)
            lines.append(f"    {f.describe()}")
    for entry in report.shrunk:
        sched = FaultSchedule.from_dict(entry["schedule"])
        lines.append(f"  SHRUNK {entry['original']} -> {sched.describe()} "
                     f"[{entry['replays']} replays]")
    for entry in report.errors:
        sched = FaultSchedule.from_dict(entry["schedule"])
        lines.append(f"  ERROR {sched.describe()}: {entry['error']}")
    return "\n".join(lines)
