"""Tests for the online invariant auditor."""

import collections
import copy
import dataclasses
import gc
import weakref

import pytest

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.analysis import global_state
from repro.analysis.invariants import _InFlightKeys, check_live_system
from repro.audit import auditor as auditor_module
from repro.audit import (
    AuditConfig,
    AuditFinding,
    FaultSchedule,
    OnlineAuditor,
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
    software=(SoftwareFaultPlan(activate_at=73.54541864228547),),
    crashes=(HardwareFaultPlan(node_id="N1b", crash_at=73.79541864228547,
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
    def test_restore_raises_when_the_chain_lacks_the_line_epoch(self):
        """Retention keeps the line's epoch in every chain, so a chain
        without it is damage: recovery stops instead of restoring some
        other epoch (and discards nothing)."""
        from repro.errors import RecoveryError
        from repro.tb.hardware_recovery import restore_to_line
        config = AuditConfig(scheme="coordinated", seed=7, schedules=1,
                             stable_history=3)
        system = build_audit_system(
            config, FaultSchedule(label="clean", system_seed=11))
        system.run(until=200.0)
        ahead = system.shadow
        store = ahead.node.stable
        line_epoch = store.epochs(ahead.process_id)[0]
        del store._chain[ahead.process_id][0]
        kept = store.history(ahead.process_id)
        with pytest.raises(RecoveryError, match="lacks line epoch"):
            restore_to_line(ahead, line_epoch)
        assert store.history(ahead.process_id) == kept

    def test_auditor_checks_the_line_the_long_outage_restores(
            self, monkeypatch):
        """Seed 3, ``N2`` down 45 s over a two-epoch history: the line
        checked at ``recovery.hardware.start`` is the one every process
        restores — epoch 9 everywhere — and it audits clean."""
        from repro.coordination.scheme import (Scheme, SystemConfig,
                                               build_system)
        from repro.tb.blocking import TbConfig
        system = build_system(SystemConfig(
            scheme=Scheme.COORDINATED, seed=3, horizon=400.0,
            stable_history=2, tb=TbConfig(interval=20.0)))
        system.inject_crash(HardwareFaultPlan(node_id="N2", crash_at=200.0,
                                              repair_time=45.0))
        auditor = OnlineAuditor(system, fail_fast=False)
        last_checked = {}
        stable_line = auditor_module.stable_line

        def recording_line(system, epoch=None, readers=None):
            line = stable_line(system, epoch=epoch, readers=readers)
            last_checked.update(line=line)
            return line
        monkeypatch.setattr(auditor_module, "stable_line", recording_line)
        # The auditor checks at recovery.hardware.start, before the
        # first restore: the line last checked then is the one at stake.
        restored, checked_line = {}, {}
        restore_from = FtProcess.restore_from

        def recording_restore(process, checkpoint, reason):
            if reason == "hardware":
                restored[process.process_id] = checkpoint
                checked_line.update(last_checked["line"])
            return restore_from(process, checkpoint, reason)
        monkeypatch.setattr(FtProcess, "restore_from", recording_restore)
        system.run()
        auditor.finalize()

        assert system.hw_recovery.recoveries == 1
        assert {c.epoch for c in restored.values()} == {9}
        assert set(checked_line) == set(restored) == {
            proc.process_id for proc in system.process_list()}
        for pid, checkpoint in restored.items():
            assert checked_line[pid] == global_state.view_from_checkpoint(
                checkpoint), pid
            assert checked_line[pid].epoch == 9
        assert auditor.findings == []


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


def _record_stable_checks(monkeypatch):
    """Record every stable-line check an auditor makes: its hook, time
    and epoch, whether it built the line (checked against a full
    replay) or kept an earlier verdict, the line's size, and whether it
    counted in ``epochs_checked``."""
    checks = []
    check_stable_epoch = OnlineAuditor._check_stable_epoch

    def full_replay_line(system, epoch=None, readers=None):
        line = global_state.stable_line(system, epoch=epoch, readers=readers)
        assert line == global_state.stable_line(system, epoch=epoch)
        checks[-1].update(built=True, members=len(line))
        return line

    def recording(auditor, now, epoch, hook):
        checks.append({"hook": hook, "time": now, "epoch": epoch,
                       "built": False, "members": 0})
        before = auditor.epochs_checked
        check_stable_epoch(auditor, now, epoch, hook)
        checks[-1]["counted"] = auditor.epochs_checked == before + 1
    monkeypatch.setattr(auditor_module, "stable_line", full_replay_line)
    monkeypatch.setattr(OnlineAuditor, "_check_stable_epoch", recording)
    return checks


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
        sections.  Every line the auditor builds equals its full
        replay; a line it checked before over the same checkpoints
        keeps its verdict and is not built again."""
        config = AuditConfig(scheme="coordinated", seed=7, schedules=40)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:35")
        checks = _record_stable_checks(monkeypatch)
        system, auditor = _run_audited(config, schedule)
        built = [check for check in checks if check["built"]]
        reused = [check for check in checks
                  if check["counted"] and not check["built"]]
        assert len(built) + len(reused) == auditor.epochs_checked > 10
        assert reused and {check["hook"] for check in reused} == {
            "recovery.hardware.start"}
        newest = -1
        older = []
        for rec in system.trace:
            if rec.category == "tb.establish.done":
                newest = max(newest, rec.data["epoch"])
            elif rec.category == "recovery.hardware.start":
                if rec.data["epoch"] < newest:
                    older.append((rec.time, rec.data["epoch"]))
        assert len(older) >= 2
        # The reader's older-epoch fallback still runs: a recovery line
        # behind the cursor that no earlier check read (the genesis
        # line, at the first crash) had to be built.
        assert any((check["time"], check["epoch"]) in older
                   for check in built)

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
        checks = _record_stable_checks(monkeypatch)
        config = AuditConfig(scheme="coordinated", seed=7, schedules=24)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:14")
        system, auditor = _run_audited(config, schedule)
        assert auditor.epochs_checked > 10
        # One read per checkpoint of every line built, no more.
        assert len(reads) == sum(check["members"] for check in checks)
        payloads = {(id(reader), id(payload)) for reader, payload, _ in reads}
        snapshots = {(id(reader), id(snapshot)) for reader, _, snapshot in reads}
        assert len(snapshots) == len(payloads)
        assert len(reads) > len(payloads)  # the copies it skipped

        def no_copy(*args, **kwargs):
            raise AssertionError("make_snapshot copied live state")
        monkeypatch.setattr(dataclasses, "replace", no_copy)
        monkeypatch.setattr(copy, "copy", no_copy)
        monkeypatch.setattr(copy, "deepcopy", no_copy)
        for process in system.process_list():
            snapshot = process.make_snapshot()
            assert snapshot.app_state is process.component.state
            assert snapshot.mdcd is process.mdcd
            # The one copy: the dedup keys as a tuple, no per-key value.
            assert snapshot.dedup_seen == tuple(process.dedup.seen)
            assert snapshot.dsn_counters is process._dsn_counters
            assert snapshot.journal_sent is process.journal_sent

    def test_a_pinned_schedule_hears_only_its_hooks_and_never_reads_the_log(
            self, monkeypatch):
        """The audit's two counters for one pinned paper schedule,
        audited cold: the auditor is called once per record in its hook
        names (not once per record kept), and its readers decode the
        sections the checkers read — never ``msg_log``."""
        calls = []
        on_record = OnlineAuditor._on_record

        def counting(auditor, rec):
            calls.append(rec.category)
            on_record(auditor, rec)
        sections_read = []
        read_section = sections.ChainReader._read_section

        def recording(reader, payload):
            sections_read.append(payload.section)
            return read_section(reader, payload)
        monkeypatch.setattr(OnlineAuditor, "_on_record", counting)
        monkeypatch.setattr(sections.ChainReader, "_read_section", recording)
        config = AuditConfig(scheme="coordinated", seed=7, schedules=24)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:14")
        system, auditor = _run_audited(config, schedule)
        hook_records = [rec.category for rec in system.trace
                        if rec.category in OnlineAuditor.HOOKS]
        assert calls == hook_records
        assert len(calls) * 2 < len(system.trace)
        assert auditor.epochs_checked > 10
        read = collections.Counter(sections_read)
        assert read["msg_log"] == 0
        assert read["journals"] >= auditor.epochs_checked

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


class TestVerdictReuse:
    """A recovery line the auditor already checked over the very same
    checkpoints keeps its verdict; anything else is checked afresh."""

    def test_a_reused_verdict_reports_what_a_fresh_check_reports(
            self, monkeypatch):
        config = AuditConfig(scheme="naive", seed=7, schedules=40)
        schedule = next(s for s in generate_schedules(config)
                        if s.label == "random:21")
        checks = _record_stable_checks(monkeypatch)
        _, auditor = _run_audited(config, schedule)
        reused = [(check["time"], check["epoch"]) for check in checks
                  if check["counted"] and not check["built"]]
        flagged = [f for f in auditor.findings
                   if (f.time, f.epoch) in reused]
        # The recovery line was flagged at its establishment and again,
        # from the kept verdict, when hardware recovery picked it.
        assert [f.hook for f in flagged] == ["recovery.hardware.start"]
        assert any(f.hook == "tb.establish.done"
                   and f.epoch == flagged[0].epoch
                   for f in auditor.findings)
        kept = [f.to_dict() for f in auditor.findings]
        monkeypatch.setattr(auditor_module, "_same_line",
                            lambda old, new: False)
        checks.clear()
        _, fresh = _run_audited(config, schedule)
        assert all(check["built"] for check in checks if check["counted"])
        assert kept == [f.to_dict() for f in fresh.findings]
        assert fresh.stats() == auditor.stats()

    @staticmethod
    def _checked_system():
        """A coordinated run stopped mid-way, its auditor holding the
        verdicts of the lines it checked so far."""
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system, fail_fast=False)
        system.run(until=200.0)
        epoch = max(auditor._verdicts)
        return system, auditor, epoch

    def test_the_same_line_keeps_its_verdict(self, monkeypatch):
        system, auditor, epoch = self._checked_system()
        checks = _record_stable_checks(monkeypatch)
        auditor._check_stable_epoch(system.sim.now, epoch,
                                    "recovery.hardware.start")
        assert [(c["built"], c["counted"]) for c in checks] == [(False, True)]

    def test_a_replaced_checkpoint_is_checked_afresh(self, monkeypatch):
        system, auditor, epoch = self._checked_system()
        proc = system.process_list()[-1]
        chain = proc.node.stable._chain[proc.process_id]
        index = next(i for i, c in enumerate(chain) if c.epoch == epoch)
        chain[index] = chain[index].rewritten()  # equal, not the same
        checks = _record_stable_checks(monkeypatch)
        auditor._check_stable_epoch(system.sim.now, epoch,
                                    "recovery.hardware.start")
        assert [(c["built"], c["counted"]) for c in checks] == [(True, True)]

    def test_a_deposed_member_is_checked_afresh(self, monkeypatch):
        system, auditor, epoch = self._checked_system()
        system.process_list()[0].deposed = True
        checks = _record_stable_checks(monkeypatch)
        auditor._check_stable_epoch(system.sim.now, epoch,
                                    "recovery.hardware.start")
        assert [(c["built"], c["counted"]) for c in checks] == [(True, True)]
        assert checks[0]["members"] == len(system.process_list()) - 1

    def test_verdicts_hold_only_retained_lines(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system, fail_fast=False)
        system.run(until=400.0)
        retained = [set(proc.node.stable.epochs(proc.process_id))
                    for proc in system.process_list()]
        assert 1 < len(auditor._verdicts) <= len(set.intersection(*retained))
        assert all(auditor._retained(epoch, checkpoints)
                   for epoch, (checkpoints, _, _) in auditor._verdicts.items())
        # A line whose checkpoint a store dropped since the last check
        # leaves no trace in a dump.
        epoch = min(auditor._verdicts)
        for proc in system.process_list():
            chain = proc.node.stable._chain[proc.process_id]
            chain[:] = [c for c in chain if c.epoch != epoch]
        _, thawed = resume(capture(system, auditor))
        assert set(thawed._verdicts) == set(auditor._verdicts) - {epoch}

    def test_forks_keep_the_template_verdicts(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        auditor = OnlineAuditor(system, fail_fast=False)
        system.run(until=200.0)
        thawed_system, thawed = resume(capture(system, auditor))
        assert thawed._verdicts
        for epoch, (checkpoints, violations, _) in thawed._verdicts.items():
            # The fork's own stores hold these very objects: its
            # recoveries reuse what the template checked.
            assert auditor_module._same_line(
                checkpoints,
                global_state.line_checkpoints(thawed_system, epoch))
            assert violations == auditor._verdicts[epoch][1]


class TestLiveChecksReadInPlace:
    def test_a_live_check_copies_nothing(self, monkeypatch):
        system, auditor = _run_audited(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        gathered = []

        def no_snapshot(process):
            raise AssertionError("a live check built a snapshot")
        monkeypatch.setattr(FtProcess, "make_snapshot", no_snapshot)
        in_flight = system.network.in_flight
        monkeypatch.setattr(system.network, "in_flight",
                            lambda: gathered.append(1) or in_flight())
        line = global_state.live_line(system)
        for pid, view in line.items():
            process = system.member(pid)
            assert view.snapshot.journal_sent is process.journal_sent
            assert view.snapshot.mdcd is process.mdcd
            assert view.snapshot.unacked == process.acks.unacknowledged()
        assert check_live_system(system) == []
        auditor._check_live(system.sim.now, hook="end-of-run")
        assert gathered == []  # no record reached the in-flight rule

    def test_the_in_flight_keys_are_the_eager_ones(self):
        system = build_audit_system(
            coordinated_config(),
            FaultSchedule(label="clean", system_seed=11))
        t = 100.0
        while not system.network.in_flight():  # stop with one on the wire
            t += 0.005
            system.run(until=t)
        eager = {m.dedup_key for m in system.network.in_flight()}
        for proc in system.process_list():
            eager.update(m.dedup_key for m in proc._buffer)
        lazy = _InFlightKeys(system)
        candidates = eager | {-1, ("P2", "P1_act", 10 ** 9)}
        assert {key for key in candidates if key in lazy} == eager


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
