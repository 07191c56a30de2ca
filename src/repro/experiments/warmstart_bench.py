"""Warm-start speedup / equivalence measurement (``repro bench-warmstart``).

Warm-start execution (:mod:`repro.warmstart`) claims two things at
once: audit campaigns and shrink searches get **at least 3x** faster,
and the acceleration is **invisible** — identical violations, identical
errors, identical shrink results, identical canonical trace digests.
This module measures both halves and packages them as the
``BENCH_warmstart.json`` record:

* **campaign** — a late-divergence boundary campaign (every schedule
  shares the fault-free prefix and injects its faults in the final
  stretch of the horizon — the regime prefix-resume exists for), run
  cold and warm through the same :func:`repro.audit.campaign.run_audit`
  entry point;
* **shrink** — every violator the campaign found, shrunk cold and
  warm; the warm predicate resumes each candidate from the campaign's
  own image store (shrink candidates all share the violator's prefix,
  so the set is already built);
* **digests** — a sample of schedules (all violators plus a spread of
  clean ones) run cold and warm with ``fail_fast`` off, comparing
  full-run canonical trace digests bit for bit;
* **golden** — the pinned Fig. 6 digests recomputed and compared to
  ``tests/golden/fig6_traces.json``, proving the warm-start machinery
  (message-id capture, de-lambda'd substrate) left cold execution
  untouched.

Early-fault campaigns are deliberately *not* the headline: a fault at
``t=30`` of a 900-second horizon leaves almost no prefix to skip, and
warm-start degrades to a wash (the engine's cold fallback keeps it
correct).  The bench regime states the claim honestly: warm-start buys
its speedup where divergence points are late — which is exactly where
audits spend their time, since a fail-fast clean schedule must run to
the horizon anyway.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from typing import Any, Dict, List, Optional

from ..audit.campaign import (
    SHRINK_MAX_REPLAYS,
    ScheduleRunner,
    run_audit,
    schedule_violates,
)
from ..audit.config import AuditConfig
from ..audit.generator import boundary_schedules, reference_timeline
from ..audit.golden import canonical_trace_lines, golden_digests, trace_digest
from ..audit.schedule import FaultSchedule
from ..audit.shrink import shrink_schedule
from ..flock import FlockRunner
from ..warmstart import (
    ImageStore,
    WarmRunner,
    divergence_time,
    share_schedule_seeds,
)
from . import bench_store

#: The bench campaign: the naive scheme (it has real violations to
#: find and shrink) over a long horizon, shared-seed boundary schedules.
SCHEME = "naive"
SEED = 7
HORIZON = 900.0
CONFIG_SCHEDULES = 48

#: Schedules qualify for the bench slice when they diverge within this
#: many seconds of the horizon — the late-divergence regime.
DIVERGENCE_WINDOW = 60.0

#: How many schedules the digest cross-check phase replays both ways.
DIGEST_SAMPLE = 8

#: The flock regime: schedules diverging within this many seconds of
#: the horizon, densified with jittered variants.  This is where
#: suffix-fork wins over prefix-resume — a warm resume replays from the
#: last captured image (tb-boundary spaced), a fork starts at the
#: 1-second grid point right before the divergence.
FLOCK_WINDOW = 12.0

#: Jittered variants per qualifying schedule (sub-quantum offsets, so
#: variants cluster on a handful of cached fork dumps).
FLOCK_VARIANTS = 96

#: How many flock-slice schedules get the full cold-vs-fork canonical
#: trace digest comparison.
FLOCK_DIGEST_SAMPLE = 4

#: The pinned golden digests (relative to the repo root, where CI and
#: the committed artifact live).
GOLDEN_PATH = "tests/golden/fig6_traces.json"


def bench_config(horizon: float = HORIZON) -> AuditConfig:
    """The campaign configuration the bench runs under."""
    return AuditConfig(scheme=SCHEME, seed=SEED,
                       schedules=CONFIG_SCHEDULES, horizon=horizon)


def bench_slice(config: AuditConfig, timeline) -> List[FaultSchedule]:
    """The timed schedule list: shared-seed boundary schedules whose
    first fault lands within :data:`DIVERGENCE_WINDOW` of the horizon."""
    cutoff = config.horizon - DIVERGENCE_WINDOW
    shared = share_schedule_seeds(config, boundary_schedules(config, timeline))
    return [sched for sched in shared if divergence_time(sched) >= cutoff]


# ----------------------------------------------------------------------
# phase 1: the campaign, cold vs warm
# ----------------------------------------------------------------------
def measure_campaign(config: AuditConfig, schedules: List[FaultSchedule],
                     timeline, store: ImageStore) -> Dict[str, Any]:
    """One cold and one warm ``run_audit`` over the same schedules.

    The warm run fills ``store`` with the shared prefix's image set;
    the shrink and digest phases reuse it.
    """
    start = time.perf_counter()
    cold = run_audit(config, schedules=schedules, shrink=False)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_audit(config, schedules=schedules, shrink=False,
                     warmstart=True, image_store=store, timeline=timeline)
    warm_seconds = time.perf_counter() - start
    return {
        "schedules": len(schedules),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-9),
        "violations": len(cold.violations),
        "errors": len(cold.errors),
        "violations_identical": cold.violations == warm.violations,
        "errors_identical": cold.errors == warm.errors,
        "warmstart": warm.warmstart,
        # Inputs to the later phases (violators come from the cold run;
        # the identity assertion above makes the choice immaterial).
        "violators": [entry["schedule"] for entry in cold.violations],
        "error_labels": [entry["schedule"]["label"]
                         for entry in cold.errors],
    }


# ----------------------------------------------------------------------
# phase 2: shrinking every violator, cold vs warm
# ----------------------------------------------------------------------
def measure_shrink(config: AuditConfig, violators: List[Dict],
                   timeline, store: ImageStore) -> Dict[str, Any]:
    """Shrink each violator twice and compare results and wall-clock."""
    runner = WarmRunner(config, store=store, timeline=timeline)
    rows: List[Dict[str, Any]] = []
    cold_total = warm_total = 0.0
    for sched_dict in violators:
        original = FaultSchedule.from_dict(sched_dict)
        start = time.perf_counter()
        cold = shrink_schedule(
            original, violates=lambda s: schedule_violates(config, s),
            horizon=config.horizon, max_replays=SHRINK_MAX_REPLAYS)
        cold_seconds = time.perf_counter() - start
        runner.ensure_images(original, force=True)
        start = time.perf_counter()
        warm = shrink_schedule(
            original, violates=runner.violates,
            horizon=config.horizon, max_replays=SHRINK_MAX_REPLAYS)
        warm_seconds = time.perf_counter() - start
        cold_total += cold_seconds
        warm_total += warm_seconds
        rows.append({
            "original": original.label,
            "shrunk": warm.schedule.describe(),
            "replays": cold.replays,
            "cache_hits": cold.cache_hits,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "identical": (cold.schedule.to_dict() == warm.schedule.to_dict()
                          and cold.replays == warm.replays
                          and cold.violated == warm.violated
                          and cold.cache_hits == warm.cache_hits),
        })
    return {
        "violators": len(rows),
        "cold_seconds": cold_total,
        "warm_seconds": warm_total,
        "speedup": cold_total / max(warm_total, 1e-9),
        "results_identical": all(row["identical"] for row in rows),
        "cases": rows,
        "warm_stats": runner.stats(),
    }


# ----------------------------------------------------------------------
# phase 3: full-trace digest equality, cold vs warm
# ----------------------------------------------------------------------
def _cold_traced_digest(config: AuditConfig, schedule: FaultSchedule) -> str:
    """Canonical trace digest of one cold, run-to-horizon audit."""
    _findings, system = ScheduleRunner(config).traced_audit(schedule)
    return trace_digest(canonical_trace_lines(system))


def digest_crosscheck(config: AuditConfig, schedules: List[FaultSchedule],
                      violators: List[Dict], error_labels: List[str],
                      timeline, store: ImageStore,
                      sample: int = DIGEST_SAMPLE) -> Dict[str, Any]:
    """Cold-vs-warm canonical trace digests for a schedule sample.

    All violators are included (their traces carry the findings), then
    an even spread of clean schedules up to ``sample`` total.  Erroring
    schedules are excluded — their runs abort mid-simulation and leave
    no complete trace to digest (the campaign phase already asserted
    the two paths report identical errors for them).
    """
    skip = set(error_labels)
    picked: List[FaultSchedule] = [FaultSchedule.from_dict(d)
                                   for d in violators]
    picked_labels = {sched.label for sched in picked} | skip
    clean = [s for s in schedules if s.label not in picked_labels]
    want = max(0, sample - len(picked))
    if clean and want:
        stride = max(1, len(clean) // want)
        picked += clean[::stride][:want]

    runner = WarmRunner(config, store=store, timeline=timeline)
    rows: List[Dict[str, Any]] = []
    for sched in picked:
        cold_digest = _cold_traced_digest(config, sched)
        _findings, system = runner.traced_audit(sched, fail_fast=False)
        warm_digest = trace_digest(canonical_trace_lines(system))
        rows.append({"label": sched.label, "digest": cold_digest,
                     "identical": cold_digest == warm_digest})
    return {
        "sampled": len(rows),
        "warm_resumes": runner.warm_runs,
        "identical": all(row["identical"] for row in rows) and bool(rows),
        "cases": rows,
    }


# ----------------------------------------------------------------------
# phase 4: the flock regime — suffix-fork vs prefix-resume
# ----------------------------------------------------------------------
def _jittered(schedule: FaultSchedule, offset: float, horizon: float,
              variant: int) -> Optional[FaultSchedule]:
    """``schedule`` with every fault instant shifted by ``offset``
    (``None`` if any instant would leave the horizon)."""
    software = tuple(dataclasses.replace(s, activate_at=s.activate_at + offset)
                     for s in schedule.software)
    crashes = tuple(dataclasses.replace(c, crash_at=c.crash_at + offset)
                    for c in schedule.crashes)
    times = ([s.activate_at for s in software] +
             [c.crash_at for c in crashes])
    if not times or max(times) >= horizon - 1.0 or min(times) <= 0.0:
        return None
    return dataclasses.replace(schedule, label=f"{schedule.label}~j{variant}",
                               software=software, crashes=crashes)


def flock_slice(config: AuditConfig, timeline,
                variants: int = FLOCK_VARIANTS) -> List[FaultSchedule]:
    """The flock-regime schedule list: every boundary schedule whose
    faults all land within :data:`FLOCK_WINDOW` of the horizon,
    densified with ``variants`` sub-quantum jittered copies each — the
    dense near-boundary exploration flock batching exists for."""
    cutoff = config.horizon - FLOCK_WINDOW
    shared = share_schedule_seeds(config, boundary_schedules(config, timeline))
    timed = [(sched, ([s.activate_at for s in sched.software] +
                      [c.crash_at for c in sched.crashes]))
             for sched in shared]
    timed = [(sched, times) for sched, times in timed if times]
    sources = [sched for sched, times in timed if min(times) >= cutoff]
    if not sources:
        # Short horizons may leave the strict window empty (no boundary
        # probe lands that late); fall back to the latest-diverging
        # schedules so reduced smoke runs still exercise the fork path.
        timed.sort(key=lambda pair: min(pair[1]))
        sources = [sched for sched, _times in timed[-3:]]
    dense: List[FaultSchedule] = []
    for sched in sources:
        # Spread the variants over a fixed ~±3.7s band regardless of
        # how many there are: denser exploration of the same boundary,
        # not a wider one (wide bands leave the flock regime).  The
        # step stays incommensurate with the 1s fork quantum, so
        # variants cluster on a handful of dumps without aligning.
        step = 7.44 / variants
        for k in range(variants):
            variant = _jittered(sched, (k - variants // 2) * step,
                                config.horizon, k)
            if variant is not None:
                dense.append(variant)
    return dense


def measure_flock(config: AuditConfig, schedules: List[FaultSchedule],
                  timeline, store: ImageStore,
                  sample: int = FLOCK_DIGEST_SAMPLE) -> Dict[str, Any]:
    """Cold, warm, and flock ``run_audit`` over the flock slice.

    The headline ratio is warm/flock — the speedup of suffix-forking
    over the resume path the campaign phase already benchmarked — with
    cold/flock recorded alongside.  A digest sample replays schedules
    cold and forked with ``fail_fast`` off and compares canonical
    traces bit for bit.
    """
    start = time.perf_counter()
    cold = run_audit(config, schedules=schedules, shrink=False)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_audit(config, schedules=schedules, shrink=False,
                     warmstart=True, image_store=store, timeline=timeline)
    warm_seconds = time.perf_counter() - start
    # The flock run consumes the same pre-built image store the warm
    # run did: each group's template thaws from the stored prefix image
    # and advances only the remaining gap (the intended layering —
    # decode each image once, fork per schedule).
    start = time.perf_counter()
    flock = run_audit(config, schedules=schedules, shrink=False,
                      flock=True, warmstart=True, image_store=store,
                      timeline=timeline)
    flock_seconds = time.perf_counter() - start

    runner = FlockRunner(config, timeline=timeline)
    runner.plan(schedules)
    digest_rows: List[Dict[str, Any]] = []
    stride = max(1, len(schedules) // max(1, sample))
    for sched in schedules[::stride][:sample]:
        cold_digest = _cold_traced_digest(config, sched)
        _findings, system = runner.traced_audit(sched, fail_fast=False)
        digest_rows.append({
            "label": sched.label, "digest": cold_digest,
            "identical": cold_digest == trace_digest(
                canonical_trace_lines(system)),
        })
    return {
        "schedules": len(schedules),
        "window": FLOCK_WINDOW,
        "variants": FLOCK_VARIANTS,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "flock_seconds": flock_seconds,
        "speedup": warm_seconds / max(flock_seconds, 1e-9),
        "speedup_vs_cold": cold_seconds / max(flock_seconds, 1e-9),
        "violations": len(cold.violations),
        "violations_identical": (flock.violations == cold.violations
                                 and warm.violations == cold.violations),
        "errors_identical": (flock.errors == cold.errors
                             and warm.errors == cold.errors),
        "digests_identical": (all(r["identical"] for r in digest_rows)
                              and bool(digest_rows)),
        "digest_sampled": len(digest_rows),
        "flock_stats": flock.warmstart,
    }


# ----------------------------------------------------------------------
# phase 5: the pinned Fig. 6 golden digests still hold
# ----------------------------------------------------------------------
def golden_check(path: str = GOLDEN_PATH) -> Dict[str, Any]:
    """Recompute the golden-trace digests and compare to the pinned file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pinned = json.load(fh)
    except OSError:
        return {"available": False, "path": path, "identical": None}
    recomputed = golden_digests()
    return {
        "available": True,
        "path": path,
        "cases": len(recomputed),
        "identical": recomputed == pinned.get("digests"),
    }


# ----------------------------------------------------------------------
# the BENCH_warmstart.json record
# ----------------------------------------------------------------------
def bench_record(horizon: float = HORIZON,
                 digest_sample: int = DIGEST_SAMPLE,
                 golden_path: Optional[str] = GOLDEN_PATH) -> Dict[str, Any]:
    """Run every phase and assemble the perf-trajectory record."""
    config = bench_config(horizon)
    timeline = reference_timeline(config)
    schedules = bench_slice(config, timeline)
    store = ImageStore()

    campaign = measure_campaign(config, schedules, timeline, store)
    violators = campaign.pop("violators")
    error_labels = campaign.pop("error_labels")
    shrink = measure_shrink(config, violators, timeline, store)
    digests = digest_crosscheck(config, schedules, violators, error_labels,
                                timeline, store, sample=digest_sample)
    flock = measure_flock(config, flock_slice(config, timeline),
                          timeline, store)
    golden = (golden_check(golden_path) if golden_path is not None
              else {"available": False, "path": None, "identical": None})

    equivalent = (campaign["violations_identical"]
                  and campaign["errors_identical"]
                  and shrink["results_identical"]
                  and digests["identical"]
                  and flock["violations_identical"]
                  and flock["errors_identical"]
                  and flock["digests_identical"]
                  and golden["identical"] is not False)
    return {
        "bench": "warmstart",
        "python": sys.version.split()[0],
        "config": config.to_dict(),
        "fingerprint": config.fingerprint(),
        "divergence_window": DIVERGENCE_WINDOW,
        "campaign": campaign,
        "shrink": shrink,
        "digests": digests,
        "flock": flock,
        "golden": golden,
        "equivalent": equivalent,
    }


def format_record(record: Dict[str, Any]) -> str:
    """Human-oriented summary lines for the CLI."""
    campaign = record["campaign"]
    shrink = record["shrink"]
    digests = record["digests"]
    flock = record.get("flock")
    golden = record["golden"]
    lines = [
        f"campaign: {campaign['schedules']} late-divergence schedules  "
        f"cold {campaign['cold_seconds']:.2f}s  "
        f"warm {campaign['warm_seconds']:.2f}s  "
        f"({campaign['speedup']:.2f}x)  "
        f"violations={campaign['violations']} errors={campaign['errors']}",
        f"  shrink: {shrink['violators']} violators  "
        f"cold {shrink['cold_seconds']:.2f}s  "
        f"warm {shrink['warm_seconds']:.2f}s  "
        f"({shrink['speedup']:.2f}x)",
        f" digests: {digests['sampled']} schedules cross-checked, "
        f"{digests['warm_resumes']} warm resumes -> "
        f"{'identical' if digests['identical'] else 'MISMATCH'}",
    ]
    if flock is not None:
        lines.append(
            f"   flock: {flock['schedules']} near-boundary schedules  "
            f"warm {flock['warm_seconds']:.2f}s  "
            f"flock {flock['flock_seconds']:.2f}s  "
            f"({flock['speedup']:.2f}x vs warm, "
            f"{flock['speedup_vs_cold']:.2f}x vs cold)")
    lines += [
        f"  golden: " + (
            f"{golden['cases']} Fig. 6 cases -> "
            f"{'identical' if golden['identical'] else 'MISMATCH'}"
            if golden["available"] else "pinned file unavailable (skipped)"),
        f"   equiv: {'ok' if record['equivalent'] else 'FAIL'}",
    ]
    return "\n".join(lines)


def trajectory_entry(record: Dict[str, Any],
                     recorded_at: Optional[str] = None) -> Dict[str, Any]:
    """The compact per-run summary kept in the trajectory: enough to
    plot the speedup over time, small enough to accumulate forever."""
    campaign = record.get("campaign", {})
    shrink = record.get("shrink", {})
    flock = record.get("flock")
    if recorded_at is None:
        recorded_at = bench_store.utc_stamp()
    entry = {
        "recorded_at": recorded_at,
        "python": record.get("python"),
        "fingerprint": record.get("fingerprint"),
        "campaign_speedup": campaign.get("speedup"),
        "shrink_speedup": shrink.get("speedup"),
        "campaign_cold_seconds": campaign.get("cold_seconds"),
        "campaign_warm_seconds": campaign.get("warm_seconds"),
        "equivalent": record.get("equivalent"),
    }
    # Records from before the flock phase existed stay compact.
    if flock is not None:
        entry["flock_speedup"] = flock.get("speedup")
        entry["flock_seconds"] = flock.get("flock_seconds")
    return entry


def write_record(record: Dict[str, Any], path: str) -> None:
    """Append ``record`` to the perf trajectory at ``path``.

    The file holds ``{"bench", "latest", "trajectory"}``: the full most
    recent record plus one compact :func:`trajectory_entry` per run, so
    ``BENCH_warmstart.json`` accumulates a speedup history instead of
    forgetting every run but the last.  A legacy single-record file is
    migrated in place (its record becomes the first trajectory entry,
    stamped with the file's mtime).
    """
    bench_store.write_record(record, path, bench="warmstart",
                             entry=trajectory_entry,
                             legacy_marker="campaign")


def read_latest(path: str) -> Optional[Dict[str, Any]]:
    """The most recent full record at ``path`` (handles both the
    trajectory document and a legacy bare record); ``None`` if absent
    or unreadable."""
    return bench_store.read_latest(path, legacy_marker="campaign")
