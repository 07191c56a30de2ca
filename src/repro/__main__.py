"""Command-line interface: ``python -m repro <command>``.

Every reproduction artifact is runnable from the shell:

.. code-block:: bash

    python -m repro scenarios           # Figures 1, 2, 3, 4, 6
    python -m repro fig7 [--full]       # the headline rollback sweep
    python -m repro table1              # original vs adapted TB
    python -m repro overhead            # performance cost by scheme
    python -m repro ablations           # design-choice removals
    python -m repro demo                # one coordinated run, narrated
    python -m repro --help              # ... and the other eight

The campaign commands (``fig7``, ``overhead``, ``ablations``) take
``--seed`` / ``--replications`` to reshape the campaign, ``--workers N``
to shard replications over worker processes, and (where results are
cacheable) ``--no-cache`` to bypass the on-disk result cache
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro-campaigns``).  Speed is
measured by the campaign ledger, ``benchmarks/e2e``, not from here.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cache_from_args(args):
    """A ResultCache unless ``--no-cache`` was given."""
    if getattr(args, "no_cache", False):
        return None
    from .parallel.cache import ResultCache
    return ResultCache()


def _cmd_scenarios(_args) -> int:
    from .experiments.scenarios import run_all_scenarios
    results = run_all_scenarios()
    for result in results:
        print(result)
    return 0 if all(r.passed for r in results) else 1


def _cmd_fig7(args) -> int:
    import dataclasses
    from .experiments.figure7 import Figure7Config, format_figure7, run_figure7
    config = Figure7Config() if args.full else Figure7Config(
        internal_rates=(60, 100, 140, 200), horizon=20_000.0, replications=1)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.replications is not None:
        config = dataclasses.replace(config, replications=args.replications)
    print(format_figure7(run_figure7(config, workers=args.workers,
                                     cache=_cache_from_args(args))))
    return 0


def _cmd_table1(args) -> int:
    from .experiments.table1 import Table1Config, format_table1, run_table1
    config = Table1Config()
    print(format_table1(run_table1(config, workers=args.workers), config))
    return 0


def _cmd_overhead(args) -> int:
    import dataclasses
    from .experiments.overhead import OverheadConfig, format_overhead, run_overhead
    config = OverheadConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.replications is not None:
        config = dataclasses.replace(config, replications=args.replications)
    print(format_overhead(run_overhead(config, workers=args.workers)))
    return 0


def _cmd_topology_sweep(args) -> int:
    import dataclasses
    from .experiments.overhead import (
        TOPOLOGY_SWEEP,
        format_topology_sweep,
        run_overhead,
    )
    config = TOPOLOGY_SWEEP
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.horizon is not None:
        config = dataclasses.replace(config, horizon=args.horizon)
    if args.topologies:
        specs = tuple(s.strip() for s in args.topologies.split(",") if s.strip())
        config = dataclasses.replace(config, topologies=specs)
    print(format_topology_sweep(run_overhead(config, workers=args.workers)))
    return 0


def _cmd_ablations(args) -> int:
    import dataclasses
    from .experiments.ablations import (
        ablate_at_coverage,
        ablate_blocking,
        ablate_dirty_fraction,
        ablate_interval,
        ablate_ndc_gating,
        ablate_swap,
        format_ablation,
    )
    from .experiments.figure7 import Figure7Config
    n = args.replications if args.replications is not None \
        else (2 if not args.full else 4)
    cache = _cache_from_args(args)
    base5 = Figure7Config(horizon=15_000.0, replications=1)
    base6 = Figure7Config(horizon=20_000.0, replications=2)
    if args.seed is not None:
        base5 = dataclasses.replace(base5, seed=args.seed)
        base6 = dataclasses.replace(base6, seed=args.seed)
    if args.replications is not None:
        base5 = dataclasses.replace(base5, replications=args.replications)
        base6 = dataclasses.replace(base6, replications=args.replications)
    print(format_ablation("Ablation 1 — mid-blocking content swap",
                          ablate_swap(12 if not args.full else 40)))
    print()
    print(format_ablation("Ablation 2 — Ndc gating",
                          ablate_ndc_gating(seeds=n, horizon=2000.0)))
    print()
    print(format_ablation("Ablation 3 — blocking period",
                          ablate_blocking(seeds=n, horizon=2000.0)))
    print()
    print(format_ablation("Ablation 4 — AT coverage",
                          ablate_at_coverage(seeds=max(n, 4),
                                             workers=args.workers)))
    print()
    print(format_ablation("Ablation 5 — dirty-fraction regime",
                          ablate_dirty_fraction(base=base5,
                                                workers=args.workers,
                                                cache=cache)))
    print()
    print(format_ablation("Ablation 6 — checkpoint interval",
                          ablate_interval(base=base6, workers=args.workers,
                                          cache=cache)))
    return 0


def _cmd_snapshot_stats(args) -> int:
    from .app.workload import WorkloadConfig
    from .coordination.scheme import Scheme, SystemConfig, build_system
    from .experiments.reporting import format_table
    from .snapshot.sections import SECTION_ORDER

    horizon = args.horizon
    system = build_system(SystemConfig(
        scheme=Scheme(args.scheme), seed=args.seed, horizon=horizon,
        incremental_snapshots=not args.full_snapshots,
        workload1=WorkloadConfig(internal_rate=0.1, external_rate=0.02,
                                 step_rate=0.02, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.05, external_rate=0.02,
                                 step_rate=0.02, horizon=horizon)))
    system.run()

    mode = "full" if args.full_snapshots else "incremental"
    print(f"scheme={args.scheme} seed={args.seed} horizon={horizon:.0f}s "
          f"capture={mode}\n")
    rows = []
    for p in system.process_list():
        for store_name, store in (("volatile", p.node.volatile),
                                  ("stable", p.node.stable)):
            if store.saves == 0:
                continue
            rows.append([str(p.process_id), store_name, store.saves,
                         f"{store.bytes_written / 1024.0:.1f}"]
                        + [f"{store.bytes_by_section.get(s, 0) / 1024.0:.1f}"
                           for s in SECTION_ORDER])
    print(format_table(
        ["process", "store", "saves", "total KiB"] + list(SECTION_ORDER),
        rows, title="Checkpoint bytes by snapshot section (KiB)"))
    enc_rows = []
    for p in system.process_list():
        enc = p.snapshot_encoder
        for section in ("journals", "msg_log"):
            enc_rows.append([str(p.process_id), section,
                             enc.full_encodes.get(section, 0),
                             enc.delta_encodes.get(section, 0)])
    print()
    print(format_table(["process", "section", "full captures",
                        "delta captures"], enc_rows,
                       title="Incremental-capture engagement"))
    return 0


def _cmd_audit(args) -> int:
    import dataclasses
    from .audit import (
        AuditConfig,
        artifact_schedules,
        audit_schedule,
        read_artifact,
        sensitivity_config,
        sensitivity_schedules,
    )

    if args.expect_violation and args.expect_clean:
        print("--expect-violation and --expect-clean are mutually "
              "exclusive", file=sys.stderr)
        return 2

    if args.replay is not None:
        # Replay the counterexamples of an artifact (diagnosis mode):
        # report every finding of every schedule, no fail-fast.
        report = read_artifact(args.replay)
        config = report.config
        if args.mutation is not None:
            config = dataclasses.replace(config, mutation=args.mutation)
        violated = 0
        for schedule in artifact_schedules(report):
            findings = audit_schedule(config, schedule, fail_fast=False)
            status = "VIOLATES" if findings else "clean"
            print(f"{schedule.describe()}: {status}")
            for finding in findings[:5]:
                print(f"  {finding.describe()}")
            violated += bool(findings)
        if args.expect_violation:
            return 0 if violated else 1
        return 0 if not violated else 1

    if args.mutation is not None:
        config = sensitivity_config(mutation=args.mutation,
                                    scheme=args.scheme, seed=args.seed,
                                    topology=args.topology,
                                    schedules=args.schedules)
        schedules = sensitivity_schedules(config)
    else:
        config = AuditConfig(scheme=args.scheme, seed=args.seed,
                             schedules=args.schedules, horizon=args.horizon,
                             topology=args.topology, flock=args.flock,
                             fork_batch=args.fork_batch)
        schedules = None
    fabric_opts = None
    if args.fabric is not None:
        from .fabric import FabricConfig
        fabric_opts = {"fabric": FabricConfig(
            host=args.host, port=args.port, shard_size=args.shard_size,
            heartbeat_timeout=args.heartbeat_timeout)}
        if args.journal:
            fabric_opts["journal"] = args.journal
        if args.cas_dir:
            fabric_opts["cas_dir"] = args.cas_dir
    return _run_campaign(args, config, schedules, workers=args.workers,
                         fabric=args.fabric, fabric_opts=fabric_opts)


def _run_campaign(args, config, schedules, **where) -> int:
    """Run one audit campaign with ``args``' execution hints, print the
    report, write the artifact; the exit status encodes the expectation
    (``--expect-violation``: mutation testing / naive-scheme CI, where
    success means the audit *caught* something)."""
    from .audit import format_audit_report, run_audit, write_artifact

    timeline = None
    if schedules is None and (args.warmstart or args.flock):
        # Warm-start and flock (one runner) trade per-schedule seed
        # diversity for prefix reuse: generate the campaign once
        # (reference timeline computed here, reused for image capture),
        # then rewrite every schedule onto the shared system seed.
        from .audit.generator import generate_schedules, reference_timeline
        from .warmstart import share_schedule_seeds
        timeline = reference_timeline(config)
        schedules = share_schedule_seeds(
            config, generate_schedules(config, timeline=timeline))
        print(f"shared system seed {schedules[0].system_seed}", flush=True)
    report = run_audit(config, shrink=args.shrink, schedules=schedules,
                       log=lambda msg: print(msg, flush=True),
                       warmstart=args.warmstart, timeline=timeline,
                       flock=args.flock, **where)
    print(format_audit_report(report))
    if args.out is not None:
        write_artifact(report, args.out)
        print(f"artifact written to {args.out}")
    if args.expect_violation:
        return 0 if report.violations else 1
    return 0 if report.clean else 1


def _cmd_fabric_worker(args) -> int:
    """One host's worker agent: serve campaigns until told otherwise."""
    from .fabric import FabricWorker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    worker = FabricWorker(args.name, cas_root=args.cas_dir,
                          log=lambda msg: print(msg, flush=True))
    try:
        stats = worker.run(host, int(port),
                           retry_delay=args.retry_delay,
                           connect_timeout=args.connect_timeout,
                           once=args.once)
    except (TimeoutError, KeyboardInterrupt) as exc:
        print(f"worker stopping: {exc}", file=sys.stderr)
        return 1
    print(f"worker {stats['worker']}: {stats['shards']} shards / "
          f"{stats['schedules']} schedules across {stats['campaigns']} "
          f"campaigns; {stats['transfers']} image transfers, "
          f"{stats['cas_hits']} CAS hits")
    return 0


def _cmd_report(_args) -> int:
    from .experiments.reporting import generate_report
    print(generate_report())
    return 0


def _cmd_timeline(args) -> int:
    from .coordination.scheme import Scheme
    from .experiments.timeline import demo_timeline
    print(demo_timeline(Scheme(args.scheme), seed=args.seed, width=args.width))
    return 0


def _cmd_demo(args) -> int:
    from .analysis import check_system_line, common_stable_line, summarize_violations
    from .app.faults import HardwareFaultPlan, SoftwareFaultPlan
    from .coordination.scheme import Scheme, SystemConfig, build_system

    horizon = 4_000.0
    system = build_system(SystemConfig(scheme=Scheme.COORDINATED,
                                       seed=args.seed, horizon=horizon))
    system.inject_software_fault(SoftwareFaultPlan(activate_at=horizon / 4.0))
    system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=horizon / 2.0,
                                          repair_time=2.0))
    system.run()
    print(f"Coordinated system, seed {args.seed}: software fault at "
          f"{horizon / 4:.0f}s, crash of N2 at {horizon / 2:.0f}s.\n")
    for rec in system.trace:
        if rec.category.startswith(("fault.", "at.fail", "recovery.")):
            who = f" [{rec.process}]" if rec.process else ""
            print(f"  t={rec.time:9.2f}{who:10s} {rec.category}")
    violations = summarize_violations(
        check_system_line(common_stable_line(system)))
    clean = all(not p.component.state.corrupt
                for p in system.process_list() if not p.deposed)
    print(f"\nshadow takeover: {bool(system.sw_recovery.completed)}; hardware "
          f"recoveries: {system.hw_recovery.recoveries}")
    print(f"final stable line violations: {violations or 'none'}")
    print(f"in-service states clean: {clean}")
    return 0 if clean and not violations else 1


def _cmd_live_demo(args) -> int:
    from .live.harness import LiveHarness
    from .topology.model import Topology

    topo = Topology.paper()
    active_id = topo.actives()[0].role_id
    peer_id = topo.peers()[0].role_id
    harness = LiveHarness(
        seed=args.seed, tb_interval=args.tb_interval, workdir=args.workdir,
        deadline=args.deadline,
        heartbeat={"interval": args.heartbeat, "timeout": args.timeout})
    summary = harness.run_demo()
    print(f"Live demo, seed {args.seed}: {topo.size} OS processes, "
          f"TCP transport, TB interval {args.tb_interval:.2f}s, heartbeat "
          f"every {args.heartbeat:.2f}s.\n")
    takeover = summary.get("takeover") or {}
    recovery = summary.get("hardware_recovery") or {}
    print(f"  kill -9 {active_id:15s}: {summary.get('active_killed')}")
    print(f"  shadow takeover        : decision={takeover.get('decision')} "
          f"incarnation={takeover.get('incarnation')} "
          f"suppressed-log-resent={takeover.get('log_suppressed')}")
    print(f"  peer adopted takeover  : {bool(summary.get('peer_adopted'))}")
    print(f"  kill -9 {peer_id:15s}: {summary.get('peer_killed')}")
    print(f"  hardware recovery      : line={recovery.get('line')} "
          f"boundary={recovery.get('boundary')} "
          f"incarnation={recovery.get('incarnation')}")
    print(f"  peer rolled back       : {summary.get('peer_rolled_back')}")
    print(f"  decisions per process  : {summary.get('decisions')}")
    print(f"\nartifacts in {harness.workdir} (decision traces, agent logs, "
          f"demo_summary.json)")
    ok = bool(summary.get("ok"))
    print(f"demo {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_live_crosscheck(args) -> int:
    from .runtime.crosscheck import run_crosscheck
    from .runtime.script import smoke_script

    script = smoke_script() if args.smoke else None
    result = run_crosscheck(seed=args.seed, script=script,
                            workdir=args.workdir, topology=args.topology)
    summary = result.summary()
    print(f"cross-backend check, seed {args.seed}, "
          f"topology {result.topology}: "
          f"{summary['ops']} scripted ops "
          f"({'smoke' if args.smoke else 'standard'} script)")
    for process, count in sorted(summary["decisions_per_process"].items()):
        print(f"  {process:8s} {count} decisions")
    for diff in result.differences:
        print(f"  DIFF: {diff}")
    print(f"equivalent: {result.equivalent}")
    return 0 if result.equivalent else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Synergistic Coordination between "
                    "Software and Hardware Fault Tolerance Techniques' "
                    "(DSN 2001)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="reproduce Figures 1, 2, 3, 4 and 6"
                   ).set_defaults(fn=_cmd_scenarios)

    def add_campaign_args(p, cache: bool = True) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="master seed for the campaign")
        p.add_argument("--replications", type=int, default=None,
                       help="replications per configuration")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: serial)")
        if cache:
            p.add_argument("--no-cache", action="store_true",
                           help="recompute instead of reading the "
                                "on-disk result cache")

    fig7 = sub.add_parser("fig7", help="reproduce Figure 7 (rollback sweep)")
    fig7.add_argument("--full", action="store_true",
                      help="publication-sized sweep")
    add_campaign_args(fig7)
    fig7.set_defaults(fn=_cmd_fig7)

    table1 = sub.add_parser("table1", help="reproduce Table 1 (TB comparison)")
    table1.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: serial)")
    table1.set_defaults(fn=_cmd_table1)

    overhead = sub.add_parser("overhead", help="performance cost by scheme")
    add_campaign_args(overhead, cache=False)
    overhead.set_defaults(fn=_cmd_overhead)

    tsweep = sub.add_parser(
        "topology-sweep",
        help="coordinated-scheme overhead vs system size (N x K topologies)")
    tsweep.add_argument("--seed", type=int, default=None,
                        help="master seed for the sweep")
    tsweep.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds per topology")
    tsweep.add_argument("--topologies", default=None,
                        help="comma-separated specs, e.g. "
                             "'paper,2x2+3,4x4+5' (default sweep: "
                             "3, 9 and 25 processes)")
    tsweep.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: serial)")
    tsweep.set_defaults(fn=_cmd_topology_sweep)

    ablations = sub.add_parser("ablations", help="design-choice ablations")
    ablations.add_argument("--full", action="store_true")
    add_campaign_args(ablations)
    ablations.set_defaults(fn=_cmd_ablations)

    sub.add_parser("report", help="regenerate the full reproduction "
                   "report in one run").set_defaults(fn=_cmd_report)

    snapstats = sub.add_parser(
        "snapshot-stats",
        help="run a short seeded scenario and print the per-section "
             "checkpoint byte table")
    snapstats.add_argument("--scheme", default="coordinated",
                           choices=["mdcd-only", "coordinated", "naive",
                                    "write-through"])
    snapstats.add_argument("--seed", type=int, default=7)
    snapstats.add_argument("--horizon", type=float, default=3_000.0)
    snapstats.add_argument("--full-snapshots", action="store_true",
                           help="disable incremental (delta) capture")
    snapstats.set_defaults(fn=_cmd_snapshot_stats)

    timeline = sub.add_parser(
        "timeline", help="render a Fig. 1/3-style execution timeline")
    timeline.add_argument("--scheme", default="coordinated",
                          choices=["mdcd-only", "coordinated", "naive",
                                   "write-through"])
    timeline.add_argument("--seed", type=int, default=11)
    timeline.add_argument("--width", type=int, default=100)
    timeline.set_defaults(fn=_cmd_timeline)

    live_demo = sub.add_parser(
        "live-demo",
        help="three real OS processes over TCP: kill -9 the active, "
             "watch the shadow take over, then recover the peer from "
             "file-backed stable storage")
    live_demo.add_argument("--seed", type=int, default=0)
    live_demo.add_argument("--tb-interval", type=float, default=0.8,
                           help="real-time TB checkpoint interval (s)")
    live_demo.add_argument("--heartbeat", type=float, default=0.15,
                           help="heartbeat period (s)")
    live_demo.add_argument("--timeout", type=float, default=0.75,
                           help="failure-detector timeout (s)")
    live_demo.add_argument("--deadline", type=float, default=90.0,
                           help="abort (and kill all agents) after this long")
    live_demo.add_argument("--workdir", default=None,
                           help="artifact directory (default: a fresh tempdir)")
    live_demo.set_defaults(fn=_cmd_live_demo)

    live_cross = sub.add_parser(
        "live-crosscheck",
        help="run the scripted workload on the discrete-event backend "
             "and on real processes; diff the decision traces")
    live_cross.add_argument("--seed", type=int, default=0)
    live_cross.add_argument("--smoke", action="store_true",
                            help="short crash-free script instead of the "
                                 "standard crash+recovery script")
    live_cross.add_argument("--workdir", default=None,
                            help="live artifact directory (default: tempdir)")
    live_cross.add_argument("--topology", default="paper",
                            help="membership to spawn: 'paper' or 'NxK'/"
                                 "'NxK+U' (one OS process per member)")
    live_cross.set_defaults(fn=_cmd_live_crosscheck)

    demo = sub.add_parser("demo", help="one narrated coordinated run")
    demo.add_argument("--seed", type=int, default=5)
    demo.set_defaults(fn=_cmd_demo)

    audit = sub.add_parser(
        "audit",
        help="adversarial schedule audit: explore fault/timing schedules "
             "under online invariant checking and shrink any violation "
             "to a minimal replayable counterexample")
    audit.add_argument("--scheme", default="coordinated",
                       choices=["naive", "coordinated",
                                "coordinated-no-swap"])
    audit.add_argument("--seed", type=int, default=7,
                       help="campaign master seed")
    audit.add_argument("--schedules", type=int, default=120,
                       help="number of schedules to explore")
    audit.add_argument("--horizon", type=float, default=600.0,
                       help="simulated seconds per schedule")
    audit.add_argument("--topology", default="paper",
                       help="membership under audit: 'paper' or 'NxK'/"
                            "'NxK+U' (N components x K shadows + U peers)")
    audit.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: serial)")
    audit.add_argument("--shrink", action="store_true",
                       help="delta-debug violating schedules to minimal "
                            "counterexamples")
    audit.add_argument("--out", metavar="PATH", default=None,
                       help="write the campaign report (violations + "
                            "shrunk schedules) as a replayable JSON "
                            "artifact")
    audit.add_argument("--replay", metavar="PATH", default=None,
                       help="replay the counterexamples of an artifact "
                            "instead of running a campaign")
    audit.add_argument("--mutation", default=None,
                       choices=["skip-pseudo-dirty", "drop-unacked-save",
                                "skip-blocking"],
                       help="plant the named protocol bug and run the "
                            "mutation-sensitivity campaign")
    audit.add_argument("--warmstart", action="store_true",
                       help="suffix-fork execution, the same runner as "
                            "--flock (shared campaign seed; identical "
                            "findings, less wall-clock); additionally "
                            "exports each prefix's image set to "
                            "--workers pool workers")
    audit.add_argument("--flock", action="store_true",
                       help="suffix-fork execution: one resident "
                            "reference per prefix group, advanced "
                            "lazily and forked per schedule (identical "
                            "findings; pool workers rebuild it per "
                            "shard unless --warmstart ships images)")
    audit.add_argument("--fork-batch", type=int, default=32,
                       help="largest shard handed to a --workers pool: "
                            "prefix groups larger than this split across "
                            "workers")
    audit.add_argument("--expect-violation", action="store_true",
                       help="exit 0 iff the audit FOUND violations "
                            "(naive-scheme and mutation CI)")
    audit.add_argument("--expect-clean", action="store_true",
                       help="exit 0 iff the audit found nothing (the "
                            "default; spelled out for CI readability)")
    audit.add_argument("--fabric", type=int, default=None, metavar="N",
                       help="dispatch over the multi-host campaign fabric, "
                            "spawning N local worker processes (0: serve "
                            "externally-started workers only)")
    audit.add_argument("--journal", metavar="PATH", default=None,
                       help="fabric dispatch journal (enables kill -9 "
                            "resume of the supervisor)")
    audit.add_argument("--cas-dir", metavar="DIR", default=None,
                       help="fabric content-addressed store directory "
                            "(image-set blobs dedup across campaigns)")
    audit.add_argument("--host", default="127.0.0.1",
                       help="fabric bind address for worker connections "
                            "(0.0.0.0 to serve other hosts)")
    audit.add_argument("--port", type=int, default=0,
                       help="fabric bind port (0: ephemeral, printed at "
                            "startup)")
    audit.add_argument("--shard-size", type=int, default=16,
                       help="schedules per dispatched fabric shard")
    audit.add_argument("--heartbeat-timeout", type=float, default=2.0,
                       help="seconds of silence before a fabric worker is "
                            "declared dead and its shards requeue")
    audit.set_defaults(fn=_cmd_audit)

    fwork = sub.add_parser(
        "fabric-worker",
        help="per-host worker agent: pull shards from a fabric "
             "supervisor, execute locally, cache image sets in a "
             "content-addressed store")
    fwork.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="the supervisor to pull work from")
    fwork.add_argument("--cas-dir", required=True, metavar="DIR",
                       help="local content-addressed cache (persists "
                            "across campaigns: each image set transfers "
                            "to this host at most once, ever)")
    fwork.add_argument("--name", default=None,
                       help="stable worker name (default: host-pid)")
    fwork.add_argument("--once", action="store_true",
                       help="exit after one completed campaign")
    fwork.add_argument("--retry-delay", type=float, default=0.5,
                       help="seconds between reconnect attempts")
    fwork.add_argument("--connect-timeout", type=float, default=None,
                       help="give up if no supervisor is reachable for "
                            "this long (default: retry forever)")
    fwork.set_defaults(fn=_cmd_fabric_worker)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
