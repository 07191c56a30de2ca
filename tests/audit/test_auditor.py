"""Tests for the online invariant auditor."""

import copy
import dataclasses
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
    sensitivity_config,
    sensitivity_schedules,
)
from repro.audit.generator import generate_schedules
from repro.errors import AuditViolation
from repro.host import FtProcess
from repro.sim.storage import StableStore
from repro.snapshot import sections
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


class TestRecoveryLine:
    def test_auditor_checks_the_checkpoints_recovery_restores_on_fallback(
            self, monkeypatch):
        """The line epoch fell out of one process's retained history:
        the coordinator restores that process's *oldest* retained
        checkpoint, and the auditor must check that one — not the
        latest — before the rollback."""
        config = AuditConfig(scheme="coordinated", seed=7, schedules=1,
                             stable_history=3)
        system = build_audit_system(
            config, FaultSchedule(label="clean", system_seed=11))
        OnlineAuditor(system, fail_fast=False)
        system.run(until=200.0)
        lagging, ahead = system.peer, system.shadow
        for proc in system.process_list():
            assert len(proc.node.stable.history(proc.process_id)) == 3
        # Epochs diverge by two: one process is left with the oldest
        # epoch only, another no longer retains it.
        del lagging.node.stable._chain[lagging.process_id][1:]
        del ahead.node.stable._chain[ahead.process_id][0]
        line_epoch = lagging.node.stable.peek(lagging.process_id).epoch
        kept = ahead.node.stable.history(ahead.process_id)
        assert [c.epoch for c in kept] == [line_epoch + 1, line_epoch + 2]

        checked = {}
        stable_line = auditor_module.stable_line

        def recording_line(system, epoch=None, readers=None):
            line = stable_line(system, epoch=epoch, readers=readers)
            checked.update(epoch=epoch, line=line)
            return line
        monkeypatch.setattr(auditor_module, "stable_line", recording_line)
        restored = {}
        restore_from = FtProcess.restore_from

        def recording_restore(process, checkpoint, reason):
            restored[process.process_id] = checkpoint
            return restore_from(process, checkpoint, reason)
        monkeypatch.setattr(FtProcess, "restore_from", recording_restore)
        system.hw_recovery.recover_all(crashed_node="test")

        assert checked["epoch"] == line_epoch
        assert restored[ahead.process_id] is kept[0]
        assert ahead.counters.get("recovery.line_fallback") == 1
        assert lagging.counters.get("recovery.line_fallback") == 0
        assert set(checked["line"]) == set(restored)
        for pid, checkpoint in restored.items():
            assert checked["line"][pid] == global_state.view_from_checkpoint(
                checkpoint), pid
        # A fallen-back view carries its own epoch, not the line's.
        assert checked["line"][ahead.process_id].epoch == line_epoch + 1


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

    @pytest.mark.parametrize("config, label", [
        pytest.param(AuditConfig(scheme="naive", seed=7, schedules=1),
                     None, id="fig4-naive"),
        pytest.param(sensitivity_config("skip-pseudo-dirty"), "mut:1",
                     id="skip-pseudo-dirty"),
        pytest.param(sensitivity_config("drop-unacked-save"), "mut:0",
                     id="drop-unacked-save"),
        pytest.param(sensitivity_config("skip-blocking"), "mut:1",
                     id="skip-blocking"),
        pytest.param(AuditConfig(scheme="coordinated", seed=5, schedules=22,
                                 topology="2x2+3"), "random:12",
                     id="2x2+3"),
    ])
    def test_findings_equal_plain_restore_state_lines(
            self, monkeypatch, config, label):
        """Violators of every kind the checkers know — through the
        paper-specialised and the N-component checkers — report the same
        findings whether lines are read through the memoising readers or
        decoded whole, checkpoint by checkpoint."""
        if label is None:
            schedule = FIG4_SCHEDULE
        else:
            candidates = (sensitivity_schedules(config)
                          if config.mutation else generate_schedules(config))
            schedule = next(s for s in candidates if s.label == label)
        through_readers = [f.to_dict() for f in
                           _run_audited(config, schedule)[1].findings]
        monkeypatch.setattr(
            auditor_module, "stable_line",
            lambda system, epoch=None, readers=None:
                global_state.stable_line(system, epoch=epoch))
        plain = [f.to_dict() for f in
                 _run_audited(config, schedule)[1].findings]
        assert through_readers == plain
        assert through_readers and all(f["line"] for f in through_readers)

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

    def test_a_frozen_payload_is_assembled_once_per_reader(
            self, monkeypatch):
        """A guard on work, not on time: epoch after epoch a dirty
        process's stable checkpoint is its one volatile checkpoint
        copied to disk, and its reader must hand back the snapshot it
        already assembled — and neither a capture nor a live view may
        copy live state on the way in."""
        reads = []
        reader_read = sections.ChainReader.read

        def recording_read(reader, payload):
            snapshot = reader_read(reader, payload)
            reads.append((reader, payload, snapshot))
            return snapshot
        monkeypatch.setattr(sections.ChainReader, "read", recording_read)
        config = AuditConfig(scheme="coordinated", seed=7, schedules=24)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:14")
        system, auditor = _run_audited(config, schedule)
        assert auditor.epochs_checked > 10
        payloads = {(id(reader), id(payload)) for reader, payload, _ in reads}
        snapshots = {(id(reader), id(snapshot)) for reader, _, snapshot in reads}
        assert len(snapshots) == len(payloads)
        assert len(reads) >= len(payloads) + 10  # the copies it skipped

        def no_copy(*args, **kwargs):
            raise AssertionError("make_snapshot copied live state")
        monkeypatch.setattr(dataclasses, "replace", no_copy)
        monkeypatch.setattr(copy, "copy", no_copy)
        monkeypatch.setattr(copy, "deepcopy", no_copy)
        for process in system.process_list():
            snapshot = process.make_snapshot()
            assert snapshot.app_state is process.component.state
            assert snapshot.mdcd is process.mdcd
            assert snapshot.dedup_seen is process.dedup.seen
            assert snapshot.dsn_counters is process._dsn_counters
            assert snapshot.journal_sent is process.journal_sent

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
