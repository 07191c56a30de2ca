"""Unit tests for checkpoint records."""

import dataclasses

import pytest

from init_built import assert_init_built
from repro.checkpoint import Checkpoint
from repro.journal import Journal
from repro.messages.log import MessageLog
from repro.messages.message import Message, MsgIdAllocator
from repro.snapshot.delta import (JournalBaseline, JournalDelta, LogBaseline,
                                  LogDelta, journal_delta, log_delta)
from repro.types import CheckpointKind, MessageKind, ProcessId, StableContent

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
