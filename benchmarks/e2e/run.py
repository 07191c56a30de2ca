#!/usr/bin/env python3
"""The campaign ledger: audited schedules per second, layer by layer.

    python3 benchmarks/e2e/run.py --workload cold_paper [--seed 7]
    python3 benchmarks/e2e/run.py --all
    python3 benchmarks/e2e/run.py --workload warm_shrink --trace out.json
    python3 benchmarks/e2e/run.py --selfcheck 5

One run prints every metric by name with its unit, checks the results,
and exits non-zero on a failed check.  The last line of standard output
is one JSON object ``{correct, attempted, failed, metrics}``: the
end-to-end metrics of the untraced run, or with ``--trace`` the
per-layer metrics of the traced run.  Names, units, directions, bounds
and the run length come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

EXIT_FAILED, EXIT_USAGE, EXIT_UNRESOLVED = 1, 2, 3
#: The seed whose round digests are pinned in ``expected.json``.
PINNED_SEED = 7
#: Workloads this runner measures that ``BENCHMARK.json`` does not gate
#: on: two workers and a supervisor on the reference host's 2 CPUs time
#: the host's scheduler as much as the fabric (the driver's check saw
#: two sets of ten same-code runs spread 32 % and 24 % on
#: ``cpu_ms_per_schedule``), so the row is for reading, not for bounds.
UNGATED = ("fabric_2w",)


def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)


def import_system() -> float:
    """Put ``src/`` on the path and import the system under test;
    returns the seconds the import took (``process.import_s``)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no source tree at {SRC}; nothing to measure",
              file=sys.stderr)
        sys.exit(EXIT_USAGE)
    sys.path.insert(0, SRC)
    begin = time.perf_counter()
    import repro.audit  # noqa: F401
    import repro.fabric  # noqa: F401
    import repro.flock  # noqa: F401
    return time.perf_counter() - begin


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def end_to_end(prepared, setup_seconds: List[float], workdir: str,
               args) -> Dict[str, Any]:
    """The untraced run: warm-up, timed rounds, end-to-end metrics."""
    import measure
    rounds = measure.run_rounds(
        lambda: measure.untraced_round(prepared, workdir),
        seconds=args.seconds, rounds=args.rounds)
    n = len(prepared.schedules)
    wall, cpu = rounds.wall, rounds.cpu
    if prepared.workload.calibrated:
        wall, cpu = rounds.reference(wall), rounds.reference(cpu)
    q1, median, q3 = measure.quartiles(wall)
    return {
        "digests": rounds.digests, "content": rounds.content,
        "calib_ms": 1e3 * statistics.median(rounds.calib),
        "metrics": {
            "schedules_per_s": n / median,
            "cpu_ms_per_schedule": 1e3 * statistics.median(cpu) / n,
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mib": measure.peak_rss_mib(),
        },
        "diagnostics": {
            "rounds": len(wall),
            "warmup_round_s": rounds.warmup_s,
            "round_min_s": min(wall),
            "round_q1_s": q1, "round_median_s": median, "round_q3_s": q3,
            "round_max_s": max(wall),
            "raw_round_median_s": statistics.median(rounds.wall),
            "raw_schedules_per_s": n / statistics.median(rounds.wall),
            "raw_cpu_ms_per_schedule": 1e3 * statistics.median(rounds.cpu) / n,
        },
    }


def traced(prepared, setup_seconds: List[float], import_s: float,
           workdir: str, args) -> Dict[str, Any]:
    """The traced run: interleaved untraced / span-recorded rounds,
    the differential sample and the layer probes."""
    import layers
    import measure
    rec = layers.SpanRecorder()
    count = args.rounds or layers.TRACE_ROUNDS
    plain, spanned = measure.Rounds(), measure.Rounds()
    measure.untraced_round(prepared, workdir)  # warm-up
    for number in range(count):
        spanned.timed(lambda: layers.traced_round(prepared, rec, workdir,
                                                  number))
        plain.timed(lambda: measure.untraced_round(prepared, workdir))

    n = len(prepared.schedules)
    kind = prepared.workload.kind
    metrics: Dict[str, float] = {}
    system, results = layers.differential_sample(prepared, metrics)
    layers.kernel_churn(metrics)
    layers.snapshot_codec(system, metrics)
    layers.wire_codec(results, metrics)
    layers.campaign_counters(kind, plain.stats, n, metrics)
    layers.fabric_reference(prepared, statistics.median(plain.wall),
                            metrics["fabric.shards"], metrics)

    # ``setup_seconds`` holds whole prepare() calls; the two generation
    # timers split them at one more reference run.
    from repro.audit import reference_timeline
    reference: List[float] = []
    for _ in range(5):
        begin = time.perf_counter()
        reference_timeline(prepared.config)
        reference.append(time.perf_counter() - begin)
    metrics["audit.reference_timeline_s"] = statistics.median(reference)
    metrics["audit.generate_schedules_s"] = max(
        0.0, statistics.median(setup_seconds)
        - metrics["audit.reference_timeline_s"])

    shrinks = [s for s in rec.spans if s["name"] == "audit.shrink"]
    metrics["audit.shrink_s_per_violator"] = (
        rec.total("audit.shrink") / len(shrinks) if shrinks else 0.0)
    metrics["audit.shrink_replays"] = float(
        sum(entry["replays"] for entry in spanned.content["shrunk"]))
    for name in ("prepare", "spawn_to_ready", "teardown"):
        metrics[f"fabric.{name}_s"] = rec.total(f"fabric.{name}") / count
    metrics["process.import_s"] = import_s
    metrics["process.rss_growth_mib"] = plain.rss[-1] - plain.rss[0]
    metrics["host.calib_ms"] = 1e3 * statistics.median(
        plain.calib + spanned.calib)
    metrics["trace.overhead_ratio"] = (statistics.median(spanned.wall)
                                       / statistics.median(plain.wall))

    self_times = rec.self_times()
    return {
        "digests": plain.digests + spanned.digests, "content": plain.content,
        "calib_ms": metrics["host.calib_ms"],
        "metrics": metrics,
        "diagnostics": {
            "rounds": count,
            "traced_round_median_s": statistics.median(spanned.wall),
            "untraced_round_median_s": statistics.median(plain.wall),
            **{f"self_s.{name}": seconds / count
               for name, seconds in sorted(self_times.items())},
        },
        "spans": {"workload": prepared.workload.name, "seed": prepared.seed,
                  "rounds": count, "self_time_s": self_times,
                  "spans": rec.spans},
    }


def run_workload(name: str, args, declaration: Dict[str, Any],
                 import_s: float) -> int:
    """Measure one workload, print it, return the exit status."""
    import measure
    import workloads
    print(f"== {name}  seed={args.seed} scale={args.scale:g} "
          f"mode={'traced' if args.trace else 'end-to-end'}"
          + ("  ungated" if name in UNGATED else ""))
    reason = workloads.unresolved_reason(name)
    if reason is not None:
        print(f"unresolved: {reason}")
        return EXIT_UNRESOLVED

    workdir = os.path.join(ROOT, ".bench_build", f"e2e-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Nothing is written outside the checkout, by workers either.
    tempfile.tempdir = os.environ["TMPDIR"] = workdir
    try:
        prepared, setup_raw, setup_reference = measure.timed_setup(
            name, args.seed, args.scale)
        if args.trace:
            outcome = traced(prepared, setup_raw, import_s, workdir, args)
            declared = declaration["per_layer"]
        else:
            outcome = end_to_end(prepared, setup_reference, workdir, args)
            declared = declaration["end_to_end"]
        digests, content = outcome["digests"], outcome["content"]
        schedules = len(prepared.schedules)
        wrong = measure.sample_mismatches(prepared, content)
    finally:
        tempfile.tempdir = None
        os.environ.pop("TMPDIR", None)
        shutil.rmtree(workdir, ignore_errors=True)

    checks = {
        "rounds_identical": len(set(digests)) == 1,
        "sample_matches_cold": not wrong,
    }
    observed = {"inputs": measure.inputs_digest(prepared),
                "results": digests[0]}
    if args.seed == PINNED_SEED and args.scale == 1.0:
        with open(os.path.join(HERE, "expected.json"), "r",
                  encoding="utf-8") as fh:
            expected = json.load(fh)["digests"].get(name, {})
        for key, digest in observed.items():
            checks[f"pinned_{key}"] = digest == expected.get(key)
    attempted = schedules * len(digests)
    failed = measure.failed_schedules(content, digests, schedules) + len(wrong)
    correct = all(checks.values()) and failed == 0

    env = measure.environment(ROOT, outcome["calib_ms"])
    print("env   " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"size  schedules_per_round={schedules} "
          f"rounds={outcome['diagnostics']['rounds']} "
          f"setup_reps={len(setup_raw)} import_s={import_s:.4f}")
    payload: Dict[str, Dict[str, Any]] = {}
    for decl in declared:
        value = outcome["metrics"][decl["name"]]
        payload[decl["name"]] = {"value": value, "unit": decl["unit"]}
        bound = (f", bound {100 * decl['bound']:g} %"
                 if "bound" in decl else "")
        print(f"  {decl['name']:<38} {value:>16.6f} {decl['unit']:<6} "
              f"({decl['better']} is better{bound})")
    for key, value in outcome["diagnostics"].items():
        print(f"  diag {key:<33} {value:>16.6f}")
    print("check " + " ".join(f"{k}={v}" for k, v in checks.items())
          + f" failed_share={failed / attempted:g}")
    print("check " + " ".join(f"{k}={v}" for k, v in observed.items()))
    if wrong:
        print("check mismatching schedules: " + ", ".join(wrong))

    if args.trace not in (None, "0", "1"):
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(outcome["spans"], fh)
        print(f"spans written to {args.trace}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": payload}))
    return 0 if correct else EXIT_FAILED


# ----------------------------------------------------------------------
# --selfcheck: two interleaved sets of runs of the same tree
# ----------------------------------------------------------------------
def one_subprocess_run(name: str, seed: int, args) -> Dict[str, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--scale", str(args.scale), "--trace", "0"]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(cmd)} exited {done.returncode}\n"
                 f"{done.stdout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def selfcheck(names: List[str], args, declaration: Dict[str, Any]) -> int:
    """Two interleaved sets of ``--selfcheck N`` runs per workload, one
    seed per run; fails when a set's quartile spread or the gap between
    the two medians exceeds the metric's bound."""
    import workloads
    status = 0
    for name in names:
        reason = workloads.unresolved_reason(name)
        if reason is not None:
            print(f"== {name}: unresolved: {reason}")
            continue
        sets: List[List[Dict[str, float]]] = [[], []]
        for index in range(args.selfcheck):
            for side in sets:
                side.append(one_subprocess_run(name, args.seed + index, args))
        print(f"== {name}: 2 x {args.selfcheck} runs, seeds "
              f"{args.seed}..{args.seed + args.selfcheck - 1}")
        for decl in declaration["end_to_end"]:
            first, second = ([run[decl["name"]] for run in side]
                             for side in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if decl["better"] == "lower" \
                else (m1 - m2) / m1
            spreads = [spread(side) if len(side) > 1 else 0.0
                       for side in (first, second)]
            # The set-up time is gated on its medians only.
            noisy = decl["name"] != "setup_s" and max(spreads) > decl["bound"]
            bad = noisy or worse > decl["bound"]
            status = EXIT_FAILED if bad else status
            print(f"  {decl['name']:<22} median {m1:.6g} / {m2:.6g} "
                  f"{decl['unit']:<5} spread {100 * spreads[0]:.2f} % / "
                  f"{100 * spreads[1]:.2f} %  second worse by "
                  f"{100 * worse:+.2f} %  bound {100 * decl['bound']:g} %  "
                  f"{'FAIL' if bad else 'ok'}")
            for label, side in (("first ", first), ("second", second)):
                print(f"    {label} " + " ".join(f"{v:.6g}" for v in side))
    return status


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]] + list(UNGATED)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="every workload in turn")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(declaration["run_seconds"]),
                        help="timed work per run (rounds are whole)")
    parser.add_argument("--trace", default=None, metavar="0|1|FILE",
                        help="traced run printing per-layer metrics; a "
                             "file name also receives the spans")
    parser.add_argument("--rounds", type=int, default=None,
                        help="exact number of timed rounds (smoke only)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the schedule counts (smoke only)")
    parser.add_argument("--selfcheck", type=int, default=None, metavar="N",
                        help="two interleaved sets of N runs per workload")
    args = parser.parse_args(argv)
    if args.trace == "0":
        args.trace = None
    if not (args.workload or args.all or args.selfcheck):
        parser.error("give --workload NAME, --all or --selfcheck N")
    chosen = [args.workload] if args.workload else names

    import_s = import_system()
    sys.path.insert(0, HERE)
    if args.selfcheck:
        return selfcheck(chosen, args, declaration)
    status = 0
    for name in chosen:
        code = run_workload(name, args, declaration, import_s)
        # With --all an unresolved workload is reported, not failed.
        if code and not (code == EXIT_UNRESOLVED and args.all):
            status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
