"""Campaign-level tests: the headline audit results.

The naive scheme must *rediscover* the paper's Fig. 4 interference
automatically and shrink it to a minimal counterexample; the
coordinated scheme must survive the same exploration clean.  Campaign
results must be byte-identical regardless of worker count (determinism
is what makes the JSON artifacts replayable).
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.audit import (
    AuditConfig,
    CrashSpec,
    FaultSchedule,
    SoftwareFaultSpec,
    artifact_schedules,
    audit_schedule,
    generate_schedules,
    read_artifact,
    reference_timeline,
    run_audit,
    write_artifact,
)
from repro.audit.campaign import make_runner
from repro.audit.golden import canonical_trace_lines, trace_digest
from repro.host import FtProcess
from repro.topology.model import parse_topology
from repro.warmstart import ImageStore, share_schedule_seeds

pytestmark = pytest.mark.audit


@pytest.fixture(scope="module")
def naive_report():
    return run_audit(AuditConfig(scheme="naive", seed=7, schedules=40),
                     shrink=True)


class TestNaiveRediscoversFig4:
    def test_violations_found(self, naive_report):
        assert naive_report.violations
        assert not naive_report.errors

    def test_fig4_shape(self, naive_report):
        # At least one violation is the Fig. 4 coincident-fault shape:
        # a software fault plus a crash, caught by the consistency or
        # ground-truth oracle.
        kinds = {v["kind"]
                 for entry in naive_report.violations
                 for finding in entry["findings"]
                 for v in finding["violations"]}
        assert kinds & {"orphan-message", "undetected-contamination",
                        "validity-mismatch"}

    def test_every_violation_shrunk_minimal(self, naive_report):
        assert len(naive_report.shrunk) == len(naive_report.violations)
        for entry in naive_report.shrunk:
            shrunk = FaultSchedule.from_dict(entry["schedule"])
            assert shrunk.fault_count <= 3
            assert shrunk.origin == "shrunk"

    def test_shrunk_schedules_still_violate_on_replay(self, naive_report):
        config = naive_report.config
        # Replaying a few shrunk schedules (each is one fast run).
        for entry in naive_report.shrunk[:3]:
            shrunk = FaultSchedule.from_dict(entry["schedule"])
            assert audit_schedule(config, shrunk, fail_fast=True)


class TestCoordinatedSurvives:
    def test_short_campaign_clean(self):
        report = run_audit(AuditConfig(scheme="coordinated", seed=7,
                                       schedules=120))
        assert report.clean, report.violations or report.errors

    @pytest.mark.slow
    def test_thousand_schedules_clean(self):
        report = run_audit(AuditConfig(scheme="coordinated", seed=7,
                                       schedules=1000), workers=4)
        assert report.clean, report.violations or report.errors

    @pytest.mark.slow
    def test_no_swap_variant_clean(self):
        report = run_audit(AuditConfig(scheme="coordinated-no-swap", seed=7,
                                       schedules=200), workers=4)
        assert report.clean, report.violations or report.errors


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        config = AuditConfig(scheme="naive", seed=11, schedules=20)
        serial = run_audit(config, workers=1)
        parallel = run_audit(config, workers=4)
        assert serial.violations == parallel.violations
        assert serial.errors == parallel.errors


class TestSeedModelOnTheRecord:
    def test_first_log_line_counts_the_distinct_prefixes(self):
        """A sweep says which seed model it ran under: per-schedule
        seeds are one prefix each, a shared seed a handful (one per
        timing-override set) — ``--warmstart --seed 11`` is clean only
        because of it (ROADMAP item 1)."""
        config = AuditConfig(scheme="naive", seed=7, schedules=12,
                             horizon=200.0)
        schedules = generate_schedules(config)

        def first_line(campaign):
            lines = []
            run_audit(config, schedules=campaign, log=lines.append)
            return lines[0]

        own = {(s.system_seed, s.overrides) for s in schedules}
        shared = {s.overrides for s in schedules}
        assert 1 <= len(shared) < len(own)
        assert first_line(schedules).endswith(f"prefixes={len(own)})")
        assert first_line(share_schedule_seeds(config, schedules)).endswith(
            f"prefixes={len(shared)})")


#: Builds a campaign's image sets into an on-disk store and exits: the
#: "other process" whose table a reader only ever sees decoded.
_SET_WRITER = """
import json, sys
from repro.audit import AuditConfig, FaultSchedule, reference_timeline
from repro.fabric import plan_shards
from repro.warmstart import ImageStore, ensure_planned_sets
spec = json.load(open(sys.argv[1]))
config = AuditConfig.from_dict(spec["config"])
schedules = [FaultSchedule.from_dict(d) for d in spec["schedules"]]
counters = ensure_planned_sets(
    config, ImageStore(spec["root"]), schedules,
    plan_shards(config, schedules, shard_size=len(schedules)),
    reference_timeline(config))
assert counters["sets_exported"] == 1, counters
"""


class TestPipelineEquivalence:
    """One campaign through every start strategy and every executor:
    the hints move work, they never change the report."""

    CONFIG = AuditConfig(scheme="naive", seed=7, schedules=12, horizon=300.0)
    STARTS = {"cold": {}, "warm": {"warmstart": True},
              "flock": {"flock": True},
              "flock_warm": {"flock": True, "warmstart": True}}
    EXECUTORS = {"in_process": {}, "workers2": {"workers": 2},
                 "fabric2": {"fabric": 2}}

    @pytest.fixture(scope="class")
    def campaign(self):
        timeline = reference_timeline(self.CONFIG)
        own = generate_schedules(self.CONFIG, timeline=timeline)
        # One shared prefix plus a schedule on a prefix of its own (it
        # lands in a mixed shard and always starts from a fresh build).
        schedules = share_schedule_seeds(self.CONFIG, own) + [
            dataclasses.replace(own[0], label="own-prefix")]
        cold = run_audit(self.CONFIG, schedules=schedules, timeline=timeline,
                         shrink=True)
        assert cold.violations and cold.shrunk and not cold.errors
        return timeline, schedules, cold

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_report_matches_cold_in_process(self, campaign, start, executor,
                                            tmp_path):
        timeline, schedules, cold = campaign
        hints = {**self.STARTS[start], **self.EXECUTORS[executor]}
        store = ImageStore()
        if "fabric" in hints:
            hints["fabric_opts"] = {"cas_dir": str(tmp_path / "cas")}
        elif "workers" not in hints:
            hints["image_store"] = store
        report = run_audit(self.CONFIG, schedules=schedules,
                           timeline=timeline, shrink=True, **hints)
        assert report.violations == cold.violations
        assert report.errors == cold.errors
        assert report.shrunk == cold.shrunk
        assert report.schedules_run == len(schedules)
        stats = report.warmstart
        assert stats["mode"].endswith(start.split("_")[0])
        if executor == "in_process" and start != "cold":
            # The resident runner really forked its schedules — all but
            # the two on a prefix nobody shares (own-prefix, and the
            # clock-skew override), shrink replays included — off one
            # template, and built no image set to do it.
            assert stats["cold_runs"] == 2
            assert stats["flock_runs"] == len(schedules) - 2 + sum(
                entry["replays"] for entry in cold.shrunk)
            assert stats["templates_built"] == 1
            assert stats["sets"] == 0 == stats["bytes"]
            assert store.stats()["sets"] == 0
            assert stats.get("sets_built", 0) == 0
            assert stats.get("warm_runs", stats["flock_runs"]) == \
                stats["flock_runs"]
        if "fabric" in hints and start != "cold":
            # One on-disk layout: each image set once, as ref -> blob.
            cas = tmp_path / "cas"
            refs = [p.name for p in (cas / "refs").iterdir()]
            assert refs and all(r.startswith("imgset-") for r in refs)
            assert len(list((cas / "blobs").iterdir())) == len(refs)
            assert not list(cas.rglob("*.imgset"))

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_warm_off_a_set_another_process_wrote(self, campaign, executor,
                                                  tmp_path):
        """The table is read back from disk, never the builder's own
        objects — in the coordinator too, not only in its workers."""
        timeline, schedules, cold = campaign
        root = tmp_path / "store"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "config": self.CONFIG.to_dict(), "root": str(root),
            "schedules": [sched.to_dict() for sched in schedules]}))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _SET_WRITER, str(spec)],
                       env=env, check=True, timeout=120)
        [blob] = (root / "blobs").iterdir()
        written = blob.read_bytes()

        hints = dict(self.EXECUTORS[executor], image_store=ImageStore(root))
        if "fabric" in hints:
            hints["fabric_opts"] = {"cas_dir": str(root)}
        report = run_audit(self.CONFIG, schedules=schedules,
                           timeline=timeline, shrink=True, warmstart=True,
                           **hints)
        assert report.violations == cold.violations
        assert report.errors == cold.errors
        assert report.shrunk == cold.shrunk
        stats = report.warmstart
        # Nobody rebuilt, nobody rewrote: every warm start and every
        # shrink replay came off the other process's blob.
        assert stats["sets_built"] == 0
        assert stats.get("sets_exported", 0) == 0
        assert stats["warm_runs"] > 0
        assert [p.read_bytes() for p in (root / "blobs").iterdir()] == \
            [written]

    def test_crash_heavy_topology_row(self, monkeypatch):
        """``2x2+3``, every schedule a node crashed twice in a row plus
        a third crash elsewhere: cold ≡ warm ≡ flock trace for trace,
        with the rollbacks' private journals carrying the records'
        ``taint_map`` (the path that once dropped them silently)."""
        config = AuditConfig(scheme="coordinated", seed=7, schedules=8,
                             horizon=240.0, topology="2x2+3")
        nodes = parse_topology(config.topology).node_ids()
        schedules = share_schedule_seeds(config, [FaultSchedule(
            label=f"heavy:{k}", system_seed=0, origin="test",
            software=((SoftwareFaultSpec(activate_at=130.0 + 7.0 * k),)
                      if k % 2 else ()),
            crashes=(
                CrashSpec(node_id=node, crash_at=150.0 + 7.0 * k),
                CrashSpec(node_id=node, crash_at=155.0 + 7.0 * k),
                CrashSpec(node_id=nodes[(k + 3) % len(nodes)],
                          crash_at=161.0 + 7.0 * k)))
            for k, node in enumerate(nodes[:6])])
        restored = []
        restore_from = FtProcess.restore_from

        def counting(process, checkpoint, reason):
            distance = restore_from(process, checkpoint, reason)
            restored.append(sum(
                bool(rec.taint_map)
                for journal in (process.journal_sent, process.journal_recv)
                for rec in journal.records()))
            return distance
        monkeypatch.setattr(FtProcess, "restore_from", counting)

        timeline = reference_timeline(config)
        runs = {}
        for mode in ("cold", "warm", "flock"):
            del restored[:]
            runner = make_runner(config, mode, store=ImageStore(),
                                 timeline=timeline)
            runner.plan(schedules)
            traces = []
            for schedule in schedules:
                findings, system = runner.traced_audit(schedule)
                traces.append((trace_digest(canonical_trace_lines(system)),
                               [f.to_dict() for f in findings]))
            runs[mode] = (traces, list(restored))
            stats = runner.stats()
            assert mode == "cold" or (stats.get("warm_runs", 0)
                                      + stats.get("flock_runs", 0)) >= 5
        _, restored_maps = runs["cold"]
        assert len(restored_maps) > 100 and sum(restored_maps) > 100
        assert runs["warm"] == runs["cold"] == runs["flock"]


class TestArtifacts:
    def test_artifact_round_trip(self, naive_report, tmp_path):
        path = tmp_path / "naive.json"
        write_artifact(naive_report, str(path))
        restored = read_artifact(str(path))
        assert restored.config == naive_report.config
        assert restored.violations == naive_report.violations
        assert restored.shrunk == naive_report.shrunk

    def test_artifact_schedules_prefer_shrunk(self, naive_report, tmp_path):
        path = tmp_path / "naive.json"
        write_artifact(naive_report, str(path))
        schedules = artifact_schedules(read_artifact(str(path)))
        # Every violator has a shrunk form, so only shrunk schedules
        # come back — all replayable.
        assert len(schedules) == len(naive_report.shrunk)
        assert all(s.origin == "shrunk" for s in schedules)
