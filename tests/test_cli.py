"""Tests for the command-line interface."""

import argparse

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        """The subcommand set, read off the parser: adding or removing
        one shows up here."""
        parser = build_parser()
        [subparsers] = [action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {
            "scenarios", "fig7", "table1", "overhead", "ablations",
            "topology-sweep", "demo", "timeline", "report",
            "snapshot-stats", "audit", "fabric-worker", "live-demo",
            "live-crosscheck"}
        for command, subparser in subparsers.choices.items():
            assert callable(subparser.get_default("fn")), command

    def test_audit_flags(self):
        args = build_parser().parse_args(
            ["audit", "--scheme", "naive", "--seed", "3", "--schedules",
             "50", "--horizon", "400", "--workers", "2", "--shrink",
             "--out", "a.json", "--expect-violation"])
        assert args.scheme == "naive"
        assert args.seed == 3
        assert args.schedules == 50
        assert args.horizon == 400.0
        assert args.workers == 2
        assert args.shrink
        assert args.out == "a.json"
        assert args.expect_violation
        assert not args.expect_clean

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.scheme == "coordinated"
        assert args.schedules == 120
        assert not args.shrink
        assert not args.warmstart
        assert args.out is None
        assert args.replay is None
        assert args.mutation is None

    def test_audit_warmstart_flag(self):
        args = build_parser().parse_args(
            ["audit", "--scheme", "naive", "--warmstart", "--shrink"])
        assert args.warmstart
        assert args.shrink

    def test_audit_flock_flags(self):
        args = build_parser().parse_args(
            ["audit", "--scheme", "naive", "--flock", "--fork-batch", "16"])
        assert args.flock
        assert args.fork_batch == 16

    def test_audit_flock_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert not args.flock
        assert args.fork_batch == 32

    def test_audit_fabric_flags(self):
        args = build_parser().parse_args(
            ["audit", "--fabric", "2", "--journal", "j.jsonl",
             "--cas-dir", "/tmp/cas"])
        assert args.fabric == 2
        assert args.journal == "j.jsonl"
        assert args.cas_dir == "/tmp/cas"

    def test_audit_fabric_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.fabric is None
        assert args.journal is None
        assert args.cas_dir is None
        # The deployment flags default to FabricConfig's own values.
        from repro.fabric import FabricConfig
        assert FabricConfig(
            host=args.host, port=args.port, shard_size=args.shard_size,
            heartbeat_timeout=args.heartbeat_timeout) == FabricConfig()

    def test_fabric_supervisor_flags(self):
        # The fabric supervisor's deployment flags live on ``audit``.
        args = build_parser().parse_args(
            ["audit", "--fabric", "0", "--cas-dir", "/tmp/cas", "--flock",
             "--host", "0.0.0.0", "--port", "7707", "--shard-size", "8",
             "--heartbeat-timeout", "5", "--journal", "j.jsonl",
             "--out", "a.json"])
        assert args.fabric == 0
        assert args.cas_dir == "/tmp/cas"
        assert args.flock
        assert (args.host, args.port) == ("0.0.0.0", 7707)
        assert args.shard_size == 8
        assert args.heartbeat_timeout == 5.0
        assert args.journal == "j.jsonl"
        assert args.out == "a.json"

    def test_fabric_supervisor_requires_cas_dir(self):
        # ... and there is no second command to build a campaign with.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fabric-supervisor"])

    def test_fabric_worker_flags(self):
        args = build_parser().parse_args(
            ["fabric-worker", "--connect", "hostA:7707",
             "--cas-dir", "/tmp/cas", "--name", "w7", "--once",
             "--connect-timeout", "5"])
        assert args.connect == "hostA:7707"
        assert args.cas_dir == "/tmp/cas"
        assert args.name == "w7"
        assert args.once
        assert args.connect_timeout == 5.0
        assert callable(args.fn)

    def test_fabric_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fabric-worker", "--cas-dir", "/x"])

    def test_snapshot_stats_rejects_unknown_codec(self):
        # There is one codec and no flag to name another.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot-stats", "--codec", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot-stats", "--codec", "pickle"])

    def test_audit_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--scheme", "mdcd-only"])

    def test_audit_rejects_unknown_mutation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--mutation", "bogus"])

    def test_snapshot_stats_flags(self):
        args = build_parser().parse_args(
            ["snapshot-stats", "--horizon", "500", "--seed", "3"])
        assert args.horizon == 500.0
        assert args.seed == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot-stats", "--full-snapshots"])

    def test_fig7_full_flag(self):
        args = build_parser().parse_args(["fig7", "--full"])
        assert args.full

    def test_fig7_campaign_flags(self):
        args = build_parser().parse_args(
            ["fig7", "--seed", "123", "--replications", "5",
             "--workers", "4", "--no-cache"])
        assert args.seed == 123
        assert args.replications == 5
        assert args.workers == 4
        assert args.no_cache

    def test_fig7_campaign_flags_default_off(self):
        args = build_parser().parse_args(["fig7"])
        assert args.seed is None
        assert args.replications is None
        assert args.workers is None
        assert not args.no_cache

    def test_overhead_campaign_flags(self):
        args = build_parser().parse_args(
            ["overhead", "--seed", "9", "--replications", "3",
             "--workers", "2"])
        assert args.seed == 9
        assert args.replications == 3
        assert args.workers == 2

    def test_overhead_has_no_cache_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["overhead", "--no-cache"])

    def test_ablations_campaign_flags(self):
        args = build_parser().parse_args(
            ["ablations", "--seed", "4", "--replications", "2",
             "--workers", "8", "--no-cache"])
        assert args.seed == 4
        assert args.replications == 2
        assert args.workers == 8
        assert args.no_cache

    def test_table1_workers_flag(self):
        args = build_parser().parse_args(["table1", "--workers", "2"])
        assert args.workers == 2

    def test_seed_requires_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--seed", "xyz"])

    def test_demo_seed(self):
        args = build_parser().parse_args(["demo", "--seed", "9"])
        assert args.seed == 9

    def test_timeline_options(self):
        args = build_parser().parse_args(
            ["timeline", "--scheme", "mdcd-only", "--width", "60"])
        assert args.scheme == "mdcd-only" and args.width == 60

    def test_timeline_rejects_unknown_scheme(self):
        import pytest
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timeline", "--scheme", "bogus"])

    def test_live_demo_flags(self):
        args = build_parser().parse_args(
            ["live-demo", "--seed", "4", "--tb-interval", "0.5",
             "--heartbeat", "0.1", "--timeout", "0.5",
             "--deadline", "60", "--workdir", "/tmp/x"])
        assert args.seed == 4
        assert args.tb_interval == 0.5
        assert args.heartbeat == 0.1
        assert args.timeout == 0.5
        assert args.deadline == 60.0
        assert args.workdir == "/tmp/x"

    def test_live_demo_defaults(self):
        args = build_parser().parse_args(["live-demo"])
        assert args.seed == 0
        assert args.tb_interval == 0.8
        assert args.workdir is None

    def test_live_crosscheck_flags(self):
        args = build_parser().parse_args(
            ["live-crosscheck", "--seed", "12", "--smoke",
             "--workdir", "/tmp/y"])
        assert args.seed == 12
        assert args.smoke
        assert args.workdir == "/tmp/y"

    def test_live_crosscheck_defaults(self):
        args = build_parser().parse_args(["live-crosscheck"])
        assert args.seed == 0
        assert not args.smoke
        assert args.workdir is None


class TestExecution:
    def test_demo_runs_clean(self, capsys):
        assert main(["demo", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "shadow takeover: True" in out
        assert "violations: none" in out

    def test_table1_prints_table(self, capsys):
        assert main(["table1"]) == 0
        assert "adapted TB" in capsys.readouterr().out

    def test_overhead_prints_table(self, capsys):
        assert main(["overhead"]) == 0
        assert "coordinated" in capsys.readouterr().out

    def test_overhead_seed_override_changes_nothing_structural(self, capsys):
        assert main(["overhead", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "coordinated" in out and "write-through" in out

    def test_fig7_with_campaign_flags(self, capsys, tmp_path, monkeypatch):
        import dataclasses
        import repro.experiments.figure7 as fig7mod
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        real_run = fig7mod.run_figure7

        seen = {}

        def tiny_run(config, **kwargs):
            seen["config"] = config
            seen["kwargs"] = kwargs
            config = dataclasses.replace(config, internal_rates=(100,),
                                         horizon=500.0)
            return real_run(config, **kwargs)

        monkeypatch.setattr(fig7mod, "run_figure7", tiny_run)
        assert main(["fig7", "--seed", "7", "--replications", "2",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        # The CLI flags reached the harness...
        assert seen["config"].seed == 7
        assert seen["config"].replications == 2
        assert seen["kwargs"]["workers"] == 2
        assert seen["kwargs"]["cache"] is not None
        # ...and the campaign cells landed in the cache directory.
        assert list((tmp_path / "refs").glob("cell-*"))

    def test_snapshot_stats_prints_section_table(self, capsys):
        assert main(["snapshot-stats", "--horizon", "600"]) == 0
        out = capsys.readouterr().out
        assert "snapshot section" in out
        assert "capture=" not in out
        for section in ("app", "mdcd", "journals", "msg_log", "counters"):
            assert section in out

    def test_timeline_renders(self, capsys):
        assert main(["timeline", "--scheme", "mdcd-only", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "P1_act" in out and "|" in out

    def test_audit_conflicting_expectations(self, capsys):
        assert main(["audit", "--expect-violation", "--expect-clean"]) == 2

    def test_audit_naive_finds_and_shrinks(self, capsys, tmp_path):
        import json
        out = tmp_path / "naive.json"
        code = main(["audit", "--scheme", "naive", "--seed", "7",
                     "--schedules", "12", "--shrink", "--out", str(out),
                     "--expect-violation"])
        assert code == 0
        text = capsys.readouterr().out
        assert "VIOLATION" in text
        assert "SHRUNK" in text
        artifact = json.loads(out.read_text())
        assert artifact["violations"]
        assert artifact["shrunk"]

    def test_audit_warmstart_finds_violations(self, capsys):
        assert main(["audit", "--scheme", "naive", "--seed", "7",
                     "--schedules", "40", "--warmstart",
                     "--expect-violation"]) == 0
        out = capsys.readouterr().out
        assert "mode=warm" in out
        # The seed model is on the record: every schedule was rewritten
        # onto this one system seed.
        from repro.sim.rng import derive_seed
        assert (f"shared system seed "
                f"{derive_seed(7, 'audit:shared') % 2 ** 31}\n") in out
        # The same runner as --flock: forks off a template, no set built.
        assert "warm: " in out and "forked" in out and "templates" in out
        assert "VIOLATION" in out

    def test_audit_flock_finds_violations(self, capsys):
        assert main(["audit", "--scheme", "naive", "--seed", "7",
                     "--schedules", "40", "--flock",
                     "--expect-violation"]) == 0
        out = capsys.readouterr().out
        assert "mode=flock" in out
        assert "forked" in out and "templates" in out
        assert "VIOLATION" in out

    def test_audit_fabric_small_campaign_clean(self, capsys, tmp_path):
        assert main(["audit", "--scheme", "coordinated", "--seed", "7",
                     "--schedules", "12", "--fabric", "2",
                     "--journal", str(tmp_path / "j.jsonl"),
                     "--cas-dir", str(tmp_path / "cas"),
                     "--expect-clean"]) == 0
        out = capsys.readouterr().out
        assert "fabric" in out
        assert "PASS" in out

    def test_audit_coordinated_small_campaign_clean(self, capsys):
        assert main(["audit", "--scheme", "coordinated", "--seed", "7",
                     "--schedules", "30", "--expect-clean"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_audit_replay_artifact(self, capsys, tmp_path):
        out = tmp_path / "naive.json"
        assert main(["audit", "--scheme", "naive", "--seed", "7",
                     "--schedules", "12", "--shrink", "--out", str(out),
                     "--expect-violation"]) == 0
        capsys.readouterr()
        assert main(["audit", "--replay", str(out),
                     "--expect-violation"]) == 0
        text = capsys.readouterr().out
        assert "VIOLATES" in text

    def test_live_crosscheck_smoke_equivalent(self, capsys, tmp_path):
        assert main(["live-crosscheck", "--smoke", "--seed", "5",
                     "--workdir", str(tmp_path / "live")]) == 0
        out = capsys.readouterr().out
        assert "equivalent: True" in out
        assert "P1_act" in out

    def test_live_demo_survives_kill9(self, capsys, tmp_path):
        import json
        workdir = tmp_path / "demo"
        assert main(["live-demo", "--seed", "2", "--tb-interval", "0.5",
                     "--heartbeat", "0.1", "--timeout", "0.5",
                     "--deadline", "60", "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "demo PASSED" in out
        assert "shadow takeover" in out
        summary = json.loads((workdir / "demo_summary.json").read_text())
        assert summary["ok"]
        assert summary["takeover"]["reason"] == "heartbeat-timeout"
        # Decision artifacts were collected for every process.
        for name in ("P1_act", "P1_sdw", "P2"):
            assert (workdir / f"decisions_{name}.jsonl").exists()
