"""Campaign-level tests: the headline audit results.

The naive scheme must *rediscover* the paper's Fig. 4 interference
automatically and shrink it to a minimal counterexample; the
coordinated scheme must survive the same exploration clean.  Campaign
results must be byte-identical regardless of worker count (determinism
is what makes the JSON artifacts replayable).
"""

import dataclasses

import pytest

from repro.audit import (
    AuditConfig,
    FaultSchedule,
    artifact_schedules,
    audit_schedule,
    generate_schedules,
    read_artifact,
    reference_timeline,
    run_audit,
    write_artifact,
)
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
        if "fabric" in hints:
            hints["fabric_opts"] = {"cas_dir": str(tmp_path / "cas")}
        elif "workers" not in hints:
            hints["image_store"] = ImageStore()
        report = run_audit(self.CONFIG, schedules=schedules,
                           timeline=timeline, shrink=True, **hints)
        assert report.violations == cold.violations
        assert report.errors == cold.errors
        assert report.shrunk == cold.shrunk
        assert report.schedules_run == len(schedules)
        stats = report.warmstart
        assert stats["mode"].endswith(start.split("_")[0])
        if executor == "in_process" and start != "cold":
            # The resident runner really started schedules warm.
            assert stats.get("warm_runs", 0) + stats.get("flock_runs", 0) > 0
        if "fabric" in hints and start != "cold":
            # One on-disk layout: each image set once, as ref -> blob.
            cas = tmp_path / "cas"
            refs = [p.name for p in (cas / "refs").iterdir()]
            assert refs and all(r.startswith("imgset-") for r in refs)
            assert len(list((cas / "blobs").iterdir())) == len(refs)
            assert not list(cas.rglob("*.imgset"))


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
