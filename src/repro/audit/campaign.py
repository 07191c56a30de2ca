"""Audit campaigns: one pipeline from schedules to a shrunk report.

:func:`run_audit` is a straight line — **plan** the campaign into
prefix-grouped shards (:func:`repro.fabric.plan.plan_shards`, the only
grouping code), **prepare** the image sets shards will start from when
they leave this process, **execute** every shard through one function
(:func:`execute_shard`), **merge** the results back into schedule order
and shrink the violators.  The execution hints choose only *where* a
shard runs (``workers``: the local pool; ``fabric``: the multi-host
fabric; neither: this process) and *what a schedule starts from*
(``warmstart`` or ``flock``: a fork of its prefix's resident template —
``warmstart`` additionally ships each prefix to pool workers as an
image set; neither: a fresh build).  Every combination assembles the
same report from the same result dicts.

Shards cross process boundaries as plain dicts — the
:class:`AuditConfig` plus each :class:`FaultSchedule`, both fully
serializable — and every worker rebuilds its systems from them, so a
campaign is deterministic regardless of worker count or placement.

Shrinking runs in the coordinator on the campaign's resident runner
(each shrink step is a full replay of one schedule); the shrunk minimal
schedules are written into the JSON artifact next to the raw violations
so a failing CI run uploads directly replayable counterexamples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

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


def start_fresh(config: AuditConfig, schedule: FaultSchedule,
                fail_fast: bool):
    """The fresh build any schedule can start from: its armed system
    with the online auditor attached, as ``(system, auditor)``."""
    system = build_audit_system(config, schedule)
    return system, OnlineAuditor(
        system, fail_fast=fail_fast,
        include_ground_truth=config.include_ground_truth)


class ScheduleRunner:
    """Audits schedules of one campaign; the cold strategy.

    The one place a schedule is run: :meth:`traced_audit` takes a
    started ``(system, auditor)`` from :meth:`_start`, runs it to the
    horizon and finalizes the auditor.  The one subclass
    (:class:`~repro.flock.runner.FlockRunner`) overrides :meth:`_start`
    to supply a fork of the prefix's resident template; whenever it
    returns ``None`` — always, here — the schedule starts from a fresh
    build.  Findings are identical whichever way a schedule starts.
    """

    #: What ``run_audit`` and the fabric call this strategy.
    mode = "cold"

    def __init__(self, config: AuditConfig, timeline=None) -> None:
        self.config = config
        self.timeline = timeline
        #: Schedules that started from a fresh build.
        self.cold_runs = 0
        #: Wall-clock running audited systems to the horizon.
        self.run_seconds = 0.0

    # ------------------------------------------------------------------
    def plan(self, schedules) -> None:
        """Look over the campaign before its first schedule runs (a
        fresh build needs to know nothing about the others)."""

    def _start(self, schedule: FaultSchedule, fail_fast: bool
               ) -> Optional[Tuple]:
        """An armed ``(system, auditor)`` positioned before
        ``schedule``'s first fault, or ``None`` for a fresh build."""
        return None

    def _audit(self, schedule: FaultSchedule, fail_fast: bool,
               release: bool):
        started = self._start(schedule, fail_fast)
        if started is None:
            self.cold_runs += 1
            started = start_fresh(self.config, schedule, fail_fast)
        system, auditor = started
        begin = time.monotonic()
        try:
            system.run()
        except AuditViolation:
            pass  # the finding is already recorded
        try:
            auditor.finalize()
        except AuditViolation:
            pass  # end-of-run oracle fired; likewise recorded
        self.run_seconds += time.monotonic() - begin
        if release:
            # However it started, everything this clears is the run's
            # own: a fork got it through its own dump.
            system.release()
        return auditor.findings, system

    def audit_schedule(self, schedule: FaultSchedule,
                       fail_fast: bool = True) -> List[AuditFinding]:
        """Run one schedule under the online auditor; its findings.

        ``fail_fast`` stops the simulation at the first violation (the
        campaign's mode); ``fail_fast=False`` runs to the horizon and
        collects every finding (the replay/diagnosis mode).
        """
        return self._audit(schedule, fail_fast, release=True)[0]

    def traced_audit(self, schedule: FaultSchedule, fail_fast: bool = False):
        """Audit one schedule, returning ``(findings, system)`` — the
        system with its full trace (prefix records travel inside an
        image or a fork), for digest cross-checks against a cold run."""
        return self._audit(schedule, fail_fast, release=False)

    def violates(self, schedule: FaultSchedule) -> bool:
        """The shrinker's predicate: does this schedule violate at all?

        A replay that *crashes* the simulator (an unmodelled corner a
        mutated candidate can reach, e.g. a crash pinned exactly onto a
        recovery action) counts as non-violating: the shrinker must only
        walk through candidates whose violation is an invariant finding.
        """
        try:
            return bool(self.audit_schedule(schedule, fail_fast=True))
        except Exception:
            return False

    def result(self, schedule: FaultSchedule) -> Dict:
        """One schedule's campaign result dict (the same whichever way
        and wherever the schedule ran)."""
        try:
            findings = self.audit_schedule(schedule, fail_fast=True)
            error = None
        except Exception as exc:  # simulation bug — report, don't abort
            findings, error = [], f"{type(exc).__name__}: {exc}"
        return {"schedule": schedule.to_dict(),
                "violated": bool(findings),
                "findings": [f.to_dict() for f in findings],
                "error": error}

    def prepare_shrink(self, original: FaultSchedule) -> None:
        """Get ready to replay dozens of subsets of ``original``'s
        faults (every shrink candidate shares its prefix)."""

    def stats(self) -> Dict[str, float]:
        """Counters for reports and benches."""
        return {"cold_runs": self.cold_runs,
                "run_seconds": round(self.run_seconds, 6)}

    def summary(self) -> str:
        """One log line about what this runner did."""
        return (f"cold: {self.cold_runs} coordinator runs "
                f"({self.run_seconds:.2f}s running)")


def audit_schedule(config: AuditConfig, schedule: FaultSchedule,
                   fail_fast: bool = True) -> List[AuditFinding]:
    """Cold-run one schedule under the online auditor; its findings
    (:meth:`ScheduleRunner.audit_schedule`)."""
    return ScheduleRunner(config).audit_schedule(schedule, fail_fast)


def make_runner(config: AuditConfig, mode: str, store=None, timeline=None,
                build_missing: bool = True) -> ScheduleRunner:
    """The runner whose schedules start the way ``mode`` says.

    ``"warm"`` and ``"flock"`` are one runner under two names.
    ``store`` is the :class:`~repro.warmstart.store.ImageStore` a
    template is thawed from where it holds the prefix's set;
    ``build_missing=False`` makes the runner consume-only (it degrades
    to a fresh build where the store has no set instead of running the
    reference itself).
    """
    if mode in ("warm", "flock"):
        from ..flock.runner import FlockRunner, WarmRunner
        runner = WarmRunner if mode == "warm" else FlockRunner
        return runner(config, store=store, timeline=timeline,
                      build_missing=build_missing)
    if mode != "cold":
        raise ValueError(f"unknown execution mode {mode!r}")
    return ScheduleRunner(config, timeline=timeline)


def execute_shard(config_dict: Dict, schedule_dicts: List[Dict], *,
                  mode: str = "cold", images_root: Optional[str] = None,
                  runner: Optional[ScheduleRunner] = None) -> List[Dict]:
    """Run one shard; one result dict per schedule, in shard order.

    The execution-equivalence seam: the in-process loop, the local pool,
    every fabric worker and the fabric supervisor's degradation path all
    call this function.  In-process callers pass the campaign's resident
    ``runner``; anywhere else the shard gets its own, planned over the
    shard alone, its template thawed from the pre-built store at
    ``images_root`` (or, handed no store, built from the reference).
    """
    schedules = [FaultSchedule.from_dict(d) for d in schedule_dicts]
    if runner is None:
        store = None
        if images_root is not None:
            from ..warmstart import ImageStore
            store = ImageStore(images_root)
        runner = make_runner(AuditConfig.from_dict(config_dict), mode,
                             store=store, build_missing=store is None)
        runner.plan(schedules)
    return [runner.result(schedule) for schedule in schedules]


def _dispatch(runner: ScheduleRunner, schedules: List[FaultSchedule], *,
              images: bool, workers: Optional[int], fabric: Optional[int],
              fabric_opts: Optional[Dict], log: Callable[[str], None]
              ) -> Tuple[List[Dict], Dict]:
    """Plan, prepare and execute where the hints say: every schedule's
    result dict in schedule order, plus the executor's own counters."""
    config = runner.config
    if fabric is not None:
        from ..fabric import run_fabric_campaign
        return run_fabric_campaign(
            config, schedules, mode=runner.mode, workers=fabric,
            timeline=runner.timeline, log=log, **(fabric_opts or {}))
    from ..fabric.plan import assemble, plan_shards
    pool = workers if workers is not None and workers > 1 else 1
    # Two shards per worker keeps a pool busy when run times vary.
    plan = plan_shards(config, schedules, shard_size=min(
        config.fork_batch, -(-len(schedules) // (2 * pool))))
    counters: Dict = {}
    root = None
    if pool > 1 and images:
        # Pool workers read image sets through the filesystem: build
        # each shared prefix once here, fan consumption out.
        from ..warmstart import ensure_planned_sets
        counters = ensure_planned_sets(config, runner.store, schedules,
                                       plan, runner.timeline)
        root = str(runner.store.root)
    shard_fn = functools.partial(
        execute_shard, config.to_dict(), mode=runner.mode, images_root=root,
        runner=runner if pool == 1 else None)
    items = [[schedules[i].to_dict() for i in shard.indices]
             for shard in plan]
    return assemble(plan, parallel_map(shard_fn, items, workers=pool),
                    len(schedules)), counters


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
    #: Execution counters: the coordinator's resident runner (its
    #: ``mode``, runs, timings, image store) plus whatever the pool or
    #: fabric that executed the shards counted.
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


def run_audit(config: AuditConfig, workers: Optional[int] = None,
              shrink: bool = False,
              schedules: Optional[List[FaultSchedule]] = None,
              log: Optional[Callable[[str], None]] = None,
              warmstart: bool = False,
              image_store=None,
              timeline=None,
              flock: Optional[bool] = None,
              fabric: Optional[int] = None,
              fabric_opts: Optional[Dict] = None) -> AuditReport:
    """Run a full campaign: generate, execute, optionally shrink.

    ``warmstart=True`` and ``flock`` (default: ``config.flock``) both
    start every schedule of a shared ``(seed, overrides)`` prefix (see
    ``repro.warmstart.share_schedule_seeds``) as a fork of that
    prefix's ONE resident template (:mod:`repro.flock`), falling back
    to a fresh build where there is none — the findings are identical
    either way — and always pay off for shrinking, whose replays all
    share the violator's prefix.  The template is built from the
    reference, or thawed from ``image_store`` where that already holds
    the prefix's image set.  What ``warmstart`` adds is the export:
    with ``workers`` it builds each shared prefix's image set
    (:mod:`repro.warmstart`) once, here, for the pool to thaw from.
    The reference timeline is computed at most once per campaign and
    threaded into generation and image capture; callers that already
    have it pass ``timeline``.

    ``workers`` runs the shards in a local process pool
    (``config.fork_batch`` caps a shard); ``fabric`` runs them over the
    multi-host campaign fabric (:mod:`repro.fabric`): the value is how
    many local worker *processes* to spawn (``0`` serves
    externally-started workers only) and ``fabric_opts`` passes through
    to :func:`repro.fabric.run_fabric_campaign` (``journal=``,
    ``cas_dir=``, ``fabric=FabricConfig(...)``, ...).  Neither keeps
    everything in this process, on one resident runner whose image
    store (``image_store``, if given) and templates stay live from the
    first shard to the last shrink replay.  Violations, errors and
    shrunk forms are bit-for-bit identical in every combination.
    """
    emit = log or (lambda _msg: None)
    start = time.monotonic()
    use_flock = config.flock if flock is None else bool(flock)
    if timeline is None and (schedules is None or warmstart):
        timeline = reference_timeline(config)
    if schedules is None:
        schedules = generate_schedules(config, timeline=timeline)
    mode = "flock" if use_flock else ("warm" if warmstart else "cold")
    # The seed model, read off the input: one prefix per schedule is a
    # per-schedule-seed campaign, a handful is a shared-seed one.
    prefixes = len({(sched.system_seed, tuple(sorted(sched.overrides)))
                    for sched in schedules})
    emit(f"auditing {len(schedules)} schedules "
         f"(scheme={config.scheme}, seed={config.seed}, "
         f"workers={workers or 1}, mode={mode}, prefixes={prefixes})")

    with contextlib.ExitStack() as cleanup:
        store = image_store
        if (warmstart and fabric is None and workers is not None
                and workers > 1 and (store is None or store.root is None)):
            # Pool workers thaw through the filesystem.
            from ..warmstart import ImageStore
            store = ImageStore(cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-images-")))
        runner = make_runner(config, mode, store=store, timeline=timeline)
        runner.plan(schedules)
        results, counters = _dispatch(
            runner, schedules, images=warmstart, workers=workers,
            fabric=fabric, fabric_opts=fabric_opts, log=emit)

        violations: List[Dict] = []
        errors: List[Dict] = []
        for result in results:
            if result["error"]:
                errors.append({"schedule": result["schedule"],
                               "error": result["error"]})
            elif result["violated"]:
                violations.append({"schedule": result["schedule"],
                                   "findings": result["findings"]})

        shrunk: List[Dict] = []
        for entry in violations if shrink else ():
            original = FaultSchedule.from_dict(entry["schedule"])
            emit(f"shrinking {original.describe()}")
            runner.prepare_shrink(original)
            result: ShrinkResult = shrink_schedule(
                original, violates=runner.violates,
                horizon=config.horizon, max_replays=SHRINK_MAX_REPLAYS)
            if result.violated:
                emit(f"  -> {result.schedule.describe()} "
                     f"({result.replays} replays, "
                     f"{result.cache_hits} memo hits)")
                shrunk.append({"original": original.label,
                               "schedule": result.schedule.to_dict(),
                               "replays": result.replays,
                               "cache_hits": result.cache_hits})

    emit(runner.summary())
    return AuditReport(config=config, schedules_run=len(schedules),
                       violations=violations, errors=errors, shrunk=shrunk,
                       wall_seconds=time.monotonic() - start,
                       warmstart={**runner.stats(), "mode": mode,
                                  **counters})


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
