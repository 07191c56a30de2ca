"""Tests for the online invariant auditor."""

import gc
import weakref

import pytest

from repro.analysis import global_state
from repro.audit import auditor as auditor_module
from repro.audit import (
    AuditConfig,
    AuditFinding,
    CrashSpec,
    FaultSchedule,
    OnlineAuditor,
    SoftwareFaultSpec,
    audit_schedule,
    build_audit_system,
)
from repro.audit.generator import generate_schedules
from repro.errors import AuditViolation
from repro.sim.storage import StableStore
from repro.warmstart.image import capture, resume

#: The first violating schedule the naive seed-7 campaign generates —
#: a coincident software fault + crash of the shadow's node (the
#: paper's Fig. 4 interference, rediscovered by the boundary
#: enumeration and pinned here as a deterministic regression input).
FIG4_SCHEDULE = FaultSchedule(
    label="boundary:coincident:1", system_seed=761983209,
    software=(SoftwareFaultSpec(activate_at=73.54541864228547),),
    crashes=(CrashSpec(node_id="N1b", crash_at=73.79541864228547,
                       repair_time=2.0),),
    origin="boundary")


def naive_config():
    return AuditConfig(scheme="naive", seed=7, schedules=1)


def coordinated_config():
    return AuditConfig(scheme="coordinated", seed=7, schedules=1)


class TestCleanRun:
    def test_coordinated_fault_free_run_is_clean(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system)
        system.run()
        auditor.finalize()
        assert auditor.findings == []
        assert auditor.epochs_checked > 5
        assert auditor.live_checks > 0

    def test_finalize_idempotent_and_detaches(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system)
        system.run()
        auditor.finalize()
        checked = auditor.epochs_checked
        live = auditor.live_checks
        auditor.finalize()
        assert (auditor.epochs_checked, auditor.live_checks) == (checked, live)

    def test_stats_counters(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system)
        system.run()
        auditor.finalize()
        stats = auditor.stats()
        assert stats["findings"] == 0
        assert stats["epochs_checked"] == auditor.epochs_checked


class TestViolationDetection:
    def test_naive_fig4_schedule_violates(self):
        findings = audit_schedule(naive_config(), FIG4_SCHEDULE,
                                  fail_fast=False)
        assert findings
        kinds = {v.kind for f in findings for v in f.violations}
        assert "undetected-contamination" in kinds or "orphan-message" in kinds

    def test_coordinated_survives_the_same_schedule(self):
        findings = audit_schedule(coordinated_config(), FIG4_SCHEDULE,
                                  fail_fast=False)
        assert findings == []

    def test_fail_fast_raises_with_finding_attached(self):
        system = build_audit_system(naive_config(), FIG4_SCHEDULE)
        auditor = OnlineAuditor(system, fail_fast=True)
        with pytest.raises(AuditViolation) as excinfo:
            system.run()
            auditor.finalize()
        assert excinfo.value.finding is auditor.findings[0]
        assert excinfo.value.violations

    def test_finding_attaches_offending_line(self):
        findings = audit_schedule(naive_config(), FIG4_SCHEDULE,
                                  fail_fast=False)
        finding = findings[0]
        assert finding.line  # per-process digest of the violating state
        for summary in finding.line.values():
            assert {"epoch", "content", "dirty_bit",
                    "unacked"} <= set(summary)


class TestAuditFinding:
    def test_dict_round_trip(self):
        findings = audit_schedule(naive_config(), FIG4_SCHEDULE,
                                  fail_fast=False)
        original = findings[0]
        restored = AuditFinding.from_dict(original.to_dict())
        assert restored.time == original.time
        assert restored.hook == original.hook
        assert [v.kind for v in restored.violations] == \
            [v.kind for v in original.violations]

    def test_describe_is_one_line(self):
        findings = audit_schedule(naive_config(), FIG4_SCHEDULE,
                                  fail_fast=False)
        text = findings[0].describe()
        assert "\n" not in text
        assert "t=" in text


def _run_audited(config, schedule):
    system = build_audit_system(config, schedule)
    auditor = OnlineAuditor(system, fail_fast=False)
    system.run()
    auditor.finalize()
    return system, auditor


class TestIncrementalReadPath:
    """The auditor reads stable lines through per-process chain readers;
    what it sees must be what a full ``restore_state()`` replay shows."""

    def test_findings_equal_full_replay_on_a_violating_slice(
            self, monkeypatch):
        config = AuditConfig(scheme="naive", seed=7, schedules=24)
        schedules = generate_schedules(config)
        incremental = [[f.to_dict() for f in _run_audited(config, s)[1].findings]
                       for s in schedules]
        monkeypatch.setattr(
            auditor_module, "stable_line",
            lambda system, epoch=None, readers=None:
                global_state.stable_line(system, epoch=epoch))
        replayed = [[f.to_dict() for f in _run_audited(config, s)[1].findings]
                    for s in schedules]
        assert incremental == replayed
        assert sum(1 for findings in incremental if findings) >= 3
        assert any(f["line"] for findings in incremental for f in findings)

    def test_every_line_equals_full_replay_across_older_epoch_recovery(
            self, monkeypatch):
        """Hardware recovery restarts from an epoch older than the last
        one audited — not a descendant of the cursor, so the reader
        falls back — and the restored processes then capture fresh full
        sections."""
        config = AuditConfig(scheme="coordinated", seed=7, schedules=24)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:14")
        compared = []

        def both(system, epoch=None, readers=None):
            line = global_state.stable_line(system, epoch=epoch,
                                            readers=readers)
            assert line == global_state.stable_line(system, epoch=epoch)
            compared.append(epoch)
            return line
        monkeypatch.setattr(auditor_module, "stable_line", both)
        system, auditor = _run_audited(config, schedule)
        assert len(compared) == auditor.epochs_checked > 10
        newest = -1
        older = 0
        for rec in system.trace:
            if rec.category == "tb.establish.done":
                newest = max(newest, rec.data["epoch"])
            elif rec.category == "recovery.hardware.start":
                older += rec.data["epoch"] < newest
        assert older >= 2

    def test_cursors_stay_out_of_images(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system)
        system.run(until=200.0)
        assert any(reader._cursor for reader in auditor._readers.values())
        with_cursors = len(capture(system, auditor).dump)
        _, thawed = resume(capture(system, auditor))
        assert thawed._readers == {}
        auditor._readers.clear()
        assert len(capture(system, auditor).dump) == with_cursors

    def test_finalize_drops_the_readers(self):
        _, auditor = _run_audited(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        assert auditor.epochs_checked > 5
        assert auditor._readers == {}


class TestRelease:
    def test_finished_schedule_frees_its_checkpoints_without_gc(
            self, monkeypatch):
        """A system is full of reference cycles; ``audit_schedule`` must
        hand its checkpoints back by reference count, not leave them
        for a generation-2 collection."""
        saved = []
        save = StableStore.save

        def remembering_save(store, checkpoint):
            saved.append(weakref.ref(checkpoint))
            save(store, checkpoint)
        monkeypatch.setattr(StableStore, "save", remembering_save)
        gc.collect()
        gc.disable()
        try:
            audit_schedule(coordinated_config(),
                           FaultSchedule(label="clean", system_seed=11))
            alive = [ref for ref in saved if ref() is not None]
        finally:
            gc.enable()
        assert len(saved) > 15
        assert alive == []
