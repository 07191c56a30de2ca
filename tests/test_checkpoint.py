"""Unit tests for checkpoint records."""

import copy
import dataclasses
from unittest import mock

import pytest

from init_built import assert_init_built
from repro.app.component import AppState
from repro.audit import (AuditConfig, boundary_schedules, reference_timeline,
                         run_audit)
from repro.checkpoint import Checkpoint
from repro.host import FtProcess, ProcessSnapshot
from repro.journal import Journal
from repro.mdcd.state import MdcdState
from repro.messages.log import MessageLog
from repro.messages.message import Message, MsgIdAllocator
from repro.snapshot import decode_payload, sections
from repro.snapshot.delta import (JournalBaseline, JournalDelta, LogBaseline,
                                  LogDelta, journal_delta, log_delta,
                                  private_journal)
from repro.snapshot.sections import SnapshotEncoder
from repro.types import CheckpointKind, MessageKind, ProcessId, StableContent
from repro.warmstart import share_schedule_seeds

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def capture(state, **kw):
    defaults = dict(process_id=ProcessId("P"), kind=CheckpointKind.TYPE_1,
                    state=state, taken_at=1.0, work_done=1.0)
    defaults.update(kw)
    return Checkpoint.capture(**defaults)


class TestIsolation:
    def test_restore_returns_equal_state(self):
        state = {"value": 42, "items": [1, 2]}
        assert capture(state).restore_state() == state

    def test_restore_is_unaliased(self):
        state = {"items": [1, 2]}
        checkpoint = capture(state)
        state["items"].append(3)
        assert checkpoint.restore_state() == {"items": [1, 2]}

    def test_each_restore_is_fresh(self):
        checkpoint = capture({"items": []})
        first = checkpoint.restore_state()
        first["items"].append(1)
        assert checkpoint.restore_state() == {"items": []}


class TestMetadata:
    def test_fields_are_kept(self):
        checkpoint = capture({"x": 1}, epoch=4,
                             content=StableContent.VOLATILE_COPY,
                             meta={"dirty_bit": 1})
        assert checkpoint.epoch == 4
        assert checkpoint.content is StableContent.VOLATILE_COPY
        assert checkpoint.meta["dirty_bit"] == 1

    def test_meta_defaults_empty(self):
        assert capture({"x": 1}).meta == {}

    def test_size_bytes_positive(self):
        assert capture({"x": 1}).size_bytes > 0

    def test_rewritten_changes_without_touching_state(self):
        checkpoint = capture({"x": 1})
        stable = checkpoint.rewritten(kind=CheckpointKind.STABLE, epoch=9,
                                      content=StableContent.VOLATILE_COPY)
        assert stable.kind is CheckpointKind.STABLE
        assert stable.epoch == 9
        assert stable.restore_state() == {"x": 1}
        # The original record is untouched (frozen dataclass copy).
        assert checkpoint.kind is CheckpointKind.TYPE_1
        assert checkpoint.epoch is None


def _msg(sn, taint=None):
    message = Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                      receiver=ProcessId("B"), sn=sn, dirty_bit=1,
                      msg_id=IDS.allocate())
    message.taint_map = taint
    return message


class TestRecordsBuiltWithoutInit:
    """The snapshot pipeline fills its records' ``__dict__`` instead of
    calling their (frozen) ``__init__``; every record it builds is the
    one ``__init__`` would have built."""

    def test_checkpoint_payload_and_sections(self):
        checkpoint = capture({"x": 1}, meta={"dirty_bit": 1})
        assert_init_built(checkpoint)
        assert_init_built(checkpoint.payload)
        for section in checkpoint.payload.sections:
            assert_init_built(section)
        stable = checkpoint.rewritten(kind=CheckpointKind.STABLE, epoch=3)
        assert_init_built(stable)
        assert stable == dataclasses.replace(
            checkpoint, kind=CheckpointKind.STABLE, epoch=3)
        with pytest.raises(TypeError):
            checkpoint.rewritten(no_such_field=1)

    def test_with_section_replaces_one_section(self):
        checkpoint = capture({"x": 1})
        rewritten = checkpoint.with_section("state", {"x": 2})
        assert rewritten.restore_state() == {"x": 2}
        assert checkpoint.restore_state() == {"x": 1}
        assert_init_built(rewritten)
        assert_init_built(rewritten.payload)
        for section in rewritten.payload.sections:
            assert_init_built(section)

    def test_rewritten_leaves_a_remembered_view_behind(self):
        checkpoint = capture({"x": 1})
        checkpoint.remember_view()
        assert "_view" not in vars(checkpoint.rewritten(epoch=1))

    def test_delta_records_round_trip(self):
        journal, log = Journal(), MessageLog()
        first, second = _msg(1), _msg(2)
        for message in (first, second):
            journal.add(message, validated=False, time=float(message.sn))
        journal_base = JournalBaseline.of(journal)
        log_base = LogBaseline.of(log)
        assert_init_built(journal_base)
        assert_init_built(log_base)
        journal.mark_validated(ProcessId("A"), up_to_sn=1)
        added = journal.add(_msg(3, taint={"P1_act": 2}), validated=True,
                            time=3.0)
        log.append(1, _msg(4), recipients=["B", "C"])
        journal_unpacked = JournalDelta.unpack(
            journal_delta(journal, journal_base))
        log_unpacked = LogDelta.unpack(log_delta(log, log_base))
        for record in (journal_unpacked, log_unpacked,
                       *journal_unpacked.added):
            assert_init_built(record)
        assert journal_unpacked.added == (added,)
        assert journal_unpacked.revalidated == (first.dedup_key,)
        assert log_unpacked.appended == tuple(log)


    def test_restored_baseline(self):
        journal = Journal()
        for sn in (1, 2, 3):
            journal.add(_msg(sn), validated=sn == 2, time=float(sn))
        journal.pruned_before = 0.5
        mutable = [key for key, rec in journal._records.items()
                   if not rec.validated]
        private = private_journal(journal, mutable)
        twins = {key: private._records[key] for key in mutable}
        built = JournalBaseline.restored(journal, twins)
        assert_init_built(built)
        assert built == JournalBaseline.of(private)
        assert [id(r) for r in built.records.values()] == [
            id(r) for r in private._records.values()]


class TestRebase:
    """``SnapshotEncoder.rebase``: a restore continues the delta chains
    from the restored payload, building their baselines lazily."""

    @staticmethod
    def _state(journal, log):
        return ProcessSnapshot(
            app_state=AppState(), mdcd=MdcdState(), sn_value=0,
            dedup_seen=(), unacked=[], journal_sent=journal,
            journal_recv=Journal(), msg_log=log, cursor=0)

    def test_first_capture_diffs_against_the_baselines_of_the_restore(self):
        encoder = SnapshotEncoder(max_chain=4)
        journal, log = Journal(), MessageLog()
        payloads = []
        for sn in range(1, 7):
            message = _msg(sn)
            journal.add(message, validated=False, time=float(sn))
            log.append(sn, message)
            journal.mark_validated(ProcessId("A"), up_to_sn=sn - 2)
            payloads.append(encoder.encode_snapshot(self._state(journal, log)))
        # Back to the third capture, a delta at depth 2.
        source = payloads[2]
        restored = decode_payload(source)
        at_restore = {
            "journal_sent": JournalBaseline.of(restored.journal_sent),
            "journal_recv": JournalBaseline.of(restored.journal_recv),
            "msg_log": LogBaseline.of(restored.msg_log)}
        with mock.patch.object(JournalBaseline, "of") as of, \
                mock.patch.object(JournalBaseline, "restored") as restored_, \
                mock.patch.object(LogBaseline, "of") as log_of:
            encoder.rebase(source, restored)
        # Nothing is built at the restore itself.
        assert not (of.called or restored_.called or log_of.called)
        journal, log = restored.journal_sent, restored.msg_log
        # What the restored process goes on to do before it captures.
        journal.mark_validated(ProcessId("A"), up_to_sn=9)
        journal.prune_validated_before(1.5)
        journal.add(_msg(7), validated=False, time=7.0)
        log.reclaim_up_to(1)
        log.append(7, _msg(7))
        used = {}

        def spy(diff):
            def read(live, base):
                used[id(live)] = base
                return diff(live, base)
            return read

        with mock.patch.object(sections, "journal_delta",
                               spy(journal_delta)), \
                mock.patch.object(sections, "log_delta", spy(log_delta)):
            state = self._state(journal, log)
            state.journal_recv = restored.journal_recv
            payload = encoder.encode_snapshot(state)
        for name in ("journal_sent", "journal_recv"):
            # Equal, and holding the very same records in the same order
            # (the diff compares records by identity).
            built, expected = used[id(getattr(state, name))], at_restore[name]
            assert built == expected
            assert [id(r) for r in built.records.values()] == [
                id(r) for r in expected.records.values()]
        assert used[id(log)] == at_restore["msg_log"]
        for name in ("journals", "msg_log"):
            [base] = [s for s in source.sections if s.section == name]
            [section] = [s for s in payload.sections if s.section == name]
            assert section.base is base and section.depth == 3
        assert decode_payload(payload) == copy.deepcopy(state)
        # The next capture is at the chain bound: full again.
        again = encoder.encode_snapshot(state)
        assert all(s.full for s in again.sections)

    def test_an_opaque_payload_starts_the_chains_over(self):
        encoder = SnapshotEncoder()
        journal, log = Journal(), MessageLog()
        encoder.encode_snapshot(self._state(journal, log))
        opaque = capture({"x": 1}).payload
        encoder.rebase(opaque, decode_payload(opaque))
        payload = encoder.encode_snapshot(self._state(journal, log))
        assert all(s.full for s in payload.sections)

    def test_a_restore_no_capture_follows_builds_no_baseline(self):
        """Forks of near-horizon schedules (``flock_dense``'s shape)
        restore and end before their next capture: no baseline may be
        built inside ``restore_from``."""
        config = AuditConfig(scheme="naive", seed=7, schedules=8,
                             horizon=300.0, topology="paper")
        timeline = reference_timeline(config)
        late = []
        for schedule in share_schedule_seeds(
                config, boundary_schedules(config, timeline)):
            times = ([s.activate_at for s in schedule.software]
                     + [c.crash_at for c in schedule.crashes])
            if times and max(times) - min(times) < 5.0:
                offset = config.horizon - 8.0 - min(times)
                late.append(dataclasses.replace(
                    schedule, label=f"{schedule.label}~late",
                    software=tuple(dataclasses.replace(
                        s, activate_at=s.activate_at + offset)
                        for s in schedule.software),
                    crashes=tuple(dataclasses.replace(
                        c, crash_at=c.crash_at + offset)
                        for c in schedule.crashes)))
        restore_from = FtProcess.restore_from
        inside, restores, built = [False], [0], []

        def spy_restore(process, checkpoint, reason):
            restores[0] += 1
            inside[0] = True
            try:
                return restore_from(process, checkpoint, reason)
            finally:
                inside[0] = False

        def spy_build(owner, name):
            build = getattr(owner, name).__func__

            def spy(cls, *args):
                if inside[0]:
                    built.append(name)
                return build(cls, *args)
            return classmethod(spy)

        with mock.patch.object(FtProcess, "restore_from", spy_restore), \
                mock.patch.object(JournalBaseline, "of",
                                  spy_build(JournalBaseline, "of")), \
                mock.patch.object(JournalBaseline, "restored",
                                  spy_build(JournalBaseline, "restored")), \
                mock.patch.object(LogBaseline, "of",
                                  spy_build(LogBaseline, "of")):
            report = run_audit(config, schedules=late[:8], timeline=timeline,
                               flock=True)
        assert report.warmstart["forks"] > 0 and restores[0] > 0
        assert built == []
