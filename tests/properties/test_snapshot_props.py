"""Property-based tests for the snapshot pipeline: codec round-trips
and incremental (delta-chain) capture/restore."""

import copy
import dataclasses
import functools
import gc
import pickle
import weakref
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis.global_state import view_from_checkpoint
from repro.app.component import AppState
from repro.audit import AuditConfig, generate_schedules
from repro.audit.campaign import build_audit_system
from repro.checkpoint import Checkpoint
from repro.host import FtProcess, ProcessSnapshot
from repro.journal import Journal
from repro.mdcd.state import MdcdState
from repro.messages.log import MessageLog
from repro.messages.message import Message, MsgIdAllocator
from repro.snapshot import (
    ChainReader,
    decode_payload,
    encode_full,
)
from repro.snapshot import sections
from repro.snapshot.delta import JournalBaseline, LogBaseline
from repro.snapshot.sections import SnapshotEncoder
from repro.types import CheckpointKind, MessageKind, ProcessId, StableContent

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def make_msg(sn, t=0.0, taint_map=None, dsn=None):
    m = Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                receiver=ProcessId("B"), sn=sn, dirty_bit=1,
                taint_map=taint_map, dsn=dsn, msg_id=IDS.allocate())
    m.send_time = t
    return m


#: Provenance a journal record may carry: (taint_map, dsn).
_provenance = st.tuples(
    st.none() | st.dictionaries(st.sampled_from(("C1_act", "C2_act")),
                                st.integers(0, 60), min_size=1),
    st.none() | st.integers(0, 60))


@st.composite
def snapshots(draw):
    """An arbitrary (consistent-enough) ProcessSnapshot."""
    journal_sent, journal_recv = Journal(), Journal()
    for journal in (journal_sent, journal_recv):
        for sn in draw(st.lists(st.integers(1, 60), unique=True,
                                max_size=10)):
            journal.add(make_msg(sn, 0.0, *draw(_provenance)),
                        validated=draw(st.booleans()), time=float(sn))
        journal.pruned_before = draw(st.floats(0.0, 10.0))
    log = MessageLog()
    for sn in sorted(draw(st.lists(st.integers(1, 60), unique=True,
                                   max_size=8))):
        log.append(sn, make_msg(sn))
    log.reclaimed_count = draw(st.integers(0, 5))
    return ProcessSnapshot(
        app_state=AppState(value=draw(st.integers(-9, 9)),
                           inputs_applied=draw(st.integers(0, 9)),
                           steps_applied=draw(st.integers(0, 9)),
                           corrupt=draw(st.booleans())),
        mdcd=MdcdState(dirty_bit=draw(st.integers(0, 1)),
                       pseudo_dirty_bit=draw(st.integers(0, 1)),
                       vr=draw(st.none() | st.integers(0, 60)),
                       guarded=draw(st.booleans())),
        sn_value=draw(st.integers(0, 99)),
        dedup_seen=set(draw(st.lists(st.integers(0, 99), max_size=6))),
        unacked=[make_msg(sn) for sn in draw(
            st.lists(st.integers(1, 30), unique=True, max_size=4))],
        journal_sent=journal_sent,
        journal_recv=journal_recv,
        msg_log=log,
        cursor=draw(st.integers(0, 99)))


class TestCodecRoundTrip:
    """The codec contract; there is one codec, so "every codec" is
    every capture."""

    @settings(max_examples=40, deadline=None)
    @given(snapshots())
    def test_decode_encode_identity_for_every_codec(self, snapshot):
        restored = decode_payload(encode_full(snapshot))
        assert restored == snapshot
        # and the restore is private (no aliasing into the capture)
        assert restored.journal_sent is not snapshot.journal_sent

    @settings(max_examples=25, deadline=None)
    @given(snapshots())
    def test_opaque_roundtrip_for_every_codec(self, snapshot):
        state = {"snapshot": snapshot, "tag": 7}
        assert decode_payload(encode_full(state)) == state


#: One mutation step of the live journals/log between captures.
_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), _provenance),
    st.tuples(st.just("validate"), st.integers(0, 80)),
    st.tuples(st.just("prune"), st.floats(0.0, 80.0)),
    st.tuples(st.just("reclaim"), st.integers(0, 80)),
    st.tuples(st.just("readd"), st.integers(0, 80)),
    st.just(("clear",)),                    # sn restart -> full fallback
    st.tuples(st.just("step"), st.integers(0, 9)),     # app section moves
    st.tuples(st.just("taint"), st.integers(0, 9)),    # mdcd section moves
    st.tuples(st.just("ack"), st.integers(0, 9)),      # counters section moves
    st.just(("capture",)),
    st.just(("copy",)),                     # volatile copy: payload reused
    st.tuples(st.just("recover"), st.integers(0, 80)),  # restore + re-base
), max_size=30)


def drive_checkpoints(ops, max_chain):
    """Drive random state mutations — journal / log traffic including
    the pruning ``compact_journals`` performs, application steps, MDCD
    knowledge updates, acknowledgements, and recovery restores (decode
    an earlier capture, ``encoder.rebase``) — through one encoder,
    capturing along the way.
    Captures with nothing in between leave the ``app`` / ``mdcd`` /
    ``counters`` sections byte-identical; a ``copy`` puts the previous
    capture's payload under a new checkpoint record, as the adapted TB
    protocol does with a dirty process's volatile checkpoint
    (``Checkpoint.rewritten``: other epoch, content and meta).  Returns
    ``[(checkpoint, deep copy of the state it froze)]`` in capture
    order.
    """
    encoder = SnapshotEncoder(max_chain=max_chain)
    journal = Journal()
    log = MessageLog()
    app = AppState()
    mdcd = MdcdState(taint_map={})
    unacked = []
    next_key = [1]
    log_sn = [1]

    def snapshot():
        return ProcessSnapshot(
            app_state=app, mdcd=mdcd, sn_value=next_key[0],
            dedup_seen=set(), unacked=unacked, journal_sent=journal,
            journal_recv=Journal(), msg_log=log, cursor=0)

    captured = []
    for op in ops + [("capture",)]:
        if op[0] == "send":
            msg = make_msg(next_key[0], float(next_key[0]), *op[1])
            journal.add(msg, validated=False, time=float(next_key[0]))
            log.append(log_sn[0], msg)
            unacked.append(msg)
            next_key[0] += 1
            log_sn[0] += 1
        elif op[0] == "validate":
            journal.mark_validated(ProcessId("A"), up_to_sn=op[1])
        elif op[0] == "prune":
            journal.prune_validated_before(op[1])
        elif op[0] == "reclaim":
            log.reclaim_up_to(op[1])
        elif op[0] == "readd":
            # Recovery discards a record and the replay re-adds its key:
            # a new, unvalidated object at the end of the order.
            if journal._records:
                key = list(journal._records)[op[1] % len(journal)]
                journal._records[key] = dataclasses.replace(
                    journal._records.pop(key), validated=False)
        elif op[0] == "clear":
            log.clear()
            log_sn[0] = 1   # restart: the delta language gives up
        elif op[0] == "step":
            app.apply_step(op[1])
        elif op[0] == "taint":
            mdcd.dirty_bit = op[1] % 2
            mdcd.taint_map[f"C{op[1]}_act"] = op[1]
        elif op[0] == "ack":
            del unacked[:op[1]]
        elif op[0] == "capture":
            # Captured by reference, as FtProcess.make_snapshot does:
            # the codec is what freezes the state.
            payload = encoder.encode_snapshot(snapshot())
            captured.append((
                Checkpoint(process_id=ProcessId("A"),
                           kind=CheckpointKind.TYPE_1,
                           taken_at=float(len(captured)), work_done=0.0,
                           payload=payload, meta={"n": len(captured)}),
                copy.deepcopy(snapshot())))
        elif op[0] == "copy":
            if not captured:
                continue
            source, expected = captured[-1]
            captured.append((source.rewritten(
                kind=CheckpointKind.STABLE, epoch=len(captured),
                content=StableContent.VOLATILE_COPY,
                meta={**source.meta, "copied_from": source.kind.value,
                      "copy": len(captured)}),
                expected))
        elif op[0] == "recover":
            if not captured:
                continue
            # Back to the last capture or an older one (a hardware
            # recovery line), as FtProcess.restore_from does it.
            source = captured[-1 - op[1] % len(captured)][0].payload
            restored = decode_payload(source)
            encoder.rebase(source, restored)
            journal = restored.journal_sent
            log = restored.msg_log
            app, mdcd, unacked = (restored.app_state, restored.mdcd,
                                  restored.unacked)
            # The real system restores its sn counter from the
            # snapshot too — resync past the restored log's tail.
            log_sn[0] = (log._entries[-1].sn + 1) if log._entries else 1
    return captured


def drive_captures(ops, max_chain):
    """:func:`drive_checkpoints` as ``[(payload, expected state)]``."""
    return [(checkpoint.payload, expected)
            for checkpoint, expected in drive_checkpoints(ops, max_chain)]


class TestIncrementalCapture:
    @settings(max_examples=40, deadline=None)
    @given(_ops, st.integers(1, 5))
    def test_every_payload_in_the_chain_restores_its_capture(
            self, ops, max_chain):
        """Every payload must decode to the state it froze, regardless
        of where its delta chain was cut."""
        for payload, expected in drive_captures(ops, max_chain):
            assert decode_payload(payload) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4))
    def test_chain_depth_is_bounded(self, captures, max_chain):
        """No payload's delta chain exceeds ``max_chain`` links."""
        encoder = SnapshotEncoder(max_chain=max_chain)
        journal = Journal()
        log = MessageLog()
        payloads = []
        for k in range(1, captures + 1):
            journal.add(make_msg(k), validated=False, time=float(k))
            log.append(k, make_msg(k))
            state = ProcessSnapshot(
                app_state=AppState(), mdcd=MdcdState(), sn_value=k,
                dedup_seen=set(), unacked=[], journal_sent=journal,
                journal_recv=Journal(), msg_log=log, cursor=0)
            payloads.append((encoder.encode_snapshot(state),
                             copy.deepcopy(state)))
        for payload, expected in payloads:
            for section in payload.sections:
                assert section.depth < max_chain
            assert decode_payload(payload) == expected


class TestChainReader:
    """The incremental read path returns what ``decode_payload`` does,
    whatever order the payloads are read in, and never changes a value
    it has already handed out."""

    @settings(max_examples=40, deadline=None)
    @given(_ops, st.integers(1, 16), st.data())
    def test_reads_equal_full_decodes_in_any_order(
            self, ops, max_chain, data):
        captured = drive_captures(ops, max_chain)
        indices = list(range(len(captured)))
        orders = {
            "in order": indices,
            "reversed": indices[::-1],
            "with gaps": indices[::2],
            "with repeats": [i for i in indices for _ in range(2)],
            "shuffled": data.draw(st.permutations(indices)),
        }
        for name, order in orders.items():
            reader = ChainReader()
            for i in order:
                payload, expected = captured[i]
                assert reader.read(payload) == expected, (name, i)

    @settings(max_examples=40, deadline=None)
    @given(_ops, st.integers(1, 16))
    def test_advancing_never_changes_an_earlier_value(self, ops, max_chain):
        captured = drive_captures(ops, max_chain)
        reader = ChainReader()
        values = [reader.read(payload) for payload, _ in captured]
        for value, (_, expected) in zip(values, captured):
            assert value == expected

    @settings(max_examples=25, deadline=None)
    @given(_ops, st.integers(1, 16), st.integers(0, 30))
    def test_pickled_reader_has_no_cursor_and_still_reads(
            self, ops, max_chain, cut):
        captured = drive_captures(ops, max_chain)
        cut = min(cut, len(captured))
        reader = ChainReader()
        for payload, _ in captured[:cut]:
            reader.read(payload)
        assert len(pickle.dumps(reader)) == len(pickle.dumps(ChainReader()))
        thawed = pickle.loads(pickle.dumps(reader))
        assert thawed._cursor == {}  # section cursors and payload memo
        for payload, expected in captured[max(cut - 1, 0):]:
            assert thawed.read(payload) == expected

    @settings(max_examples=40, deadline=None)
    @given(_ops, st.integers(1, 16))
    def test_a_shared_payload_is_one_snapshot_under_each_record(
            self, ops, max_chain):
        """Checkpoints that carry one payload (``Checkpoint.rewritten``)
        read as the same snapshot; epoch, kind, content and meta still
        come from each record."""
        reader = ChainReader()
        previous = None
        shared = 0
        for checkpoint, expected in drive_checkpoints(
                ops + [("capture",), ("copy",)], max_chain):
            view = view_from_checkpoint(checkpoint, reader)
            assert view.snapshot == expected
            assert (view.epoch, view.kind, view.meta) == (
                checkpoint.epoch, checkpoint.kind.value, checkpoint.meta)
            assert view.content == (checkpoint.content.value
                                    if checkpoint.content else None)
            if previous and previous[0].payload is checkpoint.payload:
                shared += 1
                assert view.snapshot is previous[1].snapshot
                assert view.epoch != previous[1].epoch
                assert view.meta != previous[1].meta
            previous = (checkpoint, view)
        assert shared >= 1

    def test_unchanged_full_sections_are_decoded_once(self):
        captured = drive_captures(
            [("step", 1), ("capture",), ("capture",), ("step", 2)],
            max_chain=4)
        reader = ChainReader()
        first, same, moved = [reader.read(payload)
                              for payload, _ in captured]
        for name in ("app_state", "mdcd", "dedup_seen", "unacked"):
            assert getattr(same, name) is getattr(first, name), name
        assert moved.app_state is not same.app_state
        assert moved.mdcd is same.mdcd and moved.unacked is same.unacked
        assert [first, same, moved] == [
            expected for _, expected in captured]

    @settings(max_examples=40, deadline=None)
    @given(_ops, st.integers(1, 16))
    def test_scribbling_on_a_private_decode_changes_no_memoised_view(
            self, ops, max_chain):
        reader = ChainReader()
        views = []
        for payload, expected in drive_captures(ops, max_chain):
            view = reader.read(payload)
            assert reader.read(payload) is view  # the remembered one
            scribble(decode_payload(payload))
            views.append((view, expected))
            assert reader.read(payload) is view
            for seen, frozen in views:
                assert seen == frozen


FIELDS = tuple(field.name for field in dataclasses.fields(ProcessSnapshot))


class TestReaderViews:
    """A reader hands out views that decode a section when one of its
    fields is first read: whatever is read, in whatever order, and
    whatever is never read, every field equals ``decode_payload``."""

    @settings(max_examples=60, deadline=None)
    @given(_ops, st.integers(1, 16), st.data())
    def test_fields_read_in_any_order_with_any_skipped_equal_decode(
            self, ops, max_chain, data):
        captured = drive_captures(ops, max_chain)
        indices = list(range(len(captured)))
        reads = data.draw(st.lists(st.sampled_from(indices), max_size=40),
                          label="payload reads")
        reader = ChainReader()
        views = []
        for i in reads:
            payload, _ = captured[i]
            view = reader.read(payload)
            views.append((i, view))
            # Read some fields now, in a drawn order, skipping the rest;
            # and some of an earlier view's, after the cursors moved on.
            fields = data.draw(st.lists(st.sampled_from(FIELDS),
                                        unique=True), label=f"fields{i}")
            j, earlier = data.draw(st.sampled_from(views), label="earlier")
            late = data.draw(st.lists(st.sampled_from(FIELDS),
                                      unique=True), label=f"late{j}")
            for view_i, view, names in ((i, view, fields),
                                        (j, earlier, late)):
                decoded = decode_payload(captured[view_i][0])
                for name in names:
                    assert getattr(view, name) == getattr(decoded, name), (
                        view_i, name)
        for i, view in views:
            assert view == captured[i][1] == decode_payload(captured[i][0])

    def test_a_section_no_one_reads_is_never_decoded(self, monkeypatch):
        captured = drive_captures(
            [("send", (None, None)), ("capture",), ("send", (None, None)),
             ("step", 3)], max_chain=4)
        read = []
        read_section = ChainReader._read_section

        def recording(reader, payload):
            read.append(payload.section)
            return read_section(reader, payload)
        monkeypatch.setattr(ChainReader, "_read_section", recording)
        reader = ChainReader()
        for payload, expected in captured:
            view = reader.read(payload)
            assert view.journal_sent == expected.journal_sent
            assert view.mdcd == expected.mdcd
        assert read == ["journals", "mdcd"] * len(captured)
        assert view.msg_log == expected.msg_log
        assert read[-1] == "msg_log"

    @settings(max_examples=20, deadline=None)
    @given(_ops, st.integers(1, 16), st.integers(0, 30))
    def test_dropping_views_frees_their_reader_by_reference_count(
            self, ops, max_chain, cut):
        captured = drive_captures(ops, max_chain)
        gc.collect()
        gc.disable()
        try:
            reader = ChainReader()
            alive = weakref.ref(reader)
            views = [reader.read(payload) for payload, _ in captured]
            for view in views[:cut]:
                view.journal_sent
            del reader
            # No view holds its reader: the reader (and the view it
            # remembers) went with the last strong reference.
            assert alive() is None
            # A view outliving its reader still reads what it froze.
            for view, (_, expected) in zip(views, captured):
                assert view == expected
            del views, view
            gc.set_debug(gc.DEBUG_SAVEALL)
            leaked = gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0

    @settings(max_examples=30, deadline=None)
    @given(_ops, st.integers(1, 16), st.data())
    def test_a_memoized_view_reads_identically_from_every_fork(
            self, ops, max_chain, data):
        """A checkpoint a fork table owns keeps one view for every fork
        (``Checkpoint.remember_view``): whichever fork's reader asks
        first, the view resolves through none of them, reads the same
        from every fork, and outlives them all."""
        checkpoints = drive_checkpoints(ops, max_chain)
        for checkpoint, _ in checkpoints:
            checkpoint.remember_view()
        forks = [ChainReader() for _ in range(3)]
        order = data.draw(st.lists(
            st.tuples(st.integers(0, len(forks) - 1),
                      st.integers(0, len(checkpoints) - 1)), max_size=30),
            label="(fork, checkpoint) reads")
        first = {}
        for fork, k in order:
            checkpoint, expected = checkpoints[k]
            view = view_from_checkpoint(checkpoint, forks[fork])
            assert first.setdefault(k, view) is view
            name = data.draw(st.sampled_from(FIELDS), label="field")
            assert getattr(view.snapshot, name) == getattr(expected, name)
        # No fork's cursor moved, and no view needs any fork's reader.
        assert all(reader._cursor == {} for reader in forks)
        del forks
        for k, view in first.items():
            assert view.snapshot == checkpoints[k][1]
            assert view.snapshot == decode_payload(checkpoints[k][0].payload)


def full_replay(payload):
    """What ``payload`` froze, by the road that shares nothing: an
    unpickled copy of its chain (which carries no resolved value, by
    construction) replayed from its full base."""
    return decode_payload(pickle.loads(pickle.dumps(payload)))


def scribble(snapshot):
    """Everything a restored process goes on to do to what it got:
    compute, change its MDCD knowledge and its bookkeeping, and
    validate, prune, discard, append to and reclaim its journals and
    log."""
    journal, log = snapshot.journal_sent, snapshot.msg_log
    snapshot.app_state.apply_step(7)
    snapshot.mdcd.dirty_bit ^= 1
    snapshot.mdcd.taint_map["scribble"] = 1
    snapshot.dedup_seen.add(-1)
    snapshot.unacked.append(make_msg(999))
    snapshot.dsn_counters["scribble"] = 1
    journal.mark_validated(ProcessId("A"))
    journal.prune_validated_before(40.0)
    journal.discard(journal.keys()[::2])
    journal.add(make_msg(999, 99.0), validated=False, time=99.0)
    log.reclaim_up_to(log._entries[0].sn if log._entries else 0)
    log.append(10_000, make_msg(10_000))


class TestSharedResolve:
    """A section resolves once per payload and every ``decode_payload``
    still owns what it gets (``sections._resolved`` / ``_private``)."""

    @settings(max_examples=60, deadline=None)
    @given(_ops, st.sampled_from((1, 2, 3, 5, 16)), st.data())
    def test_decodes_equal_the_full_replay_and_share_nothing_mutable(
            self, ops, max_chain, data):
        captured = drive_captures(ops, max_chain)
        indices = list(range(len(captured)))
        reader = ChainReader()
        views = {}
        for i in data.draw(st.permutations(indices), label="order"):
            payload, expected = captured[i]
            assert full_replay(payload) == expected
            first = decode_payload(payload)
            again = decode_payload(payload)
            assert first == expected and again == expected
            # ... after a reader took this payload, or a descendant of
            # it, read-only (cursor miss, then an advance past it):
            views[i] = reader.read(payload)
            j = data.draw(st.sampled_from(indices[i:]), label=f"then{i}")
            views[j] = reader.read(captured[j][0])
            third = decode_payload(payload)
            assert third == expected
            # One owner does its worst; nobody else notices.
            scribble(first)
            assert first != expected
            assert again == expected and third == expected
            assert decode_payload(payload) == expected
            for k, view in views.items():
                assert view == captured[k][1], (i, k)
        for payload, expected in captured:
            assert decode_payload(payload) == expected
            assert ChainReader().read(payload) == expected

    @settings(max_examples=25, deadline=None)
    @given(_ops, st.integers(1, 16))
    def test_pickled_payload_carries_no_resolved_value(self, ops, max_chain):
        captured = drive_captures(ops, max_chain)
        bare = [len(pickle.dumps(payload)) for payload, _ in captured]
        for payload, _ in captured:
            decode_payload(payload)
        assert any("_resolved" in vars(section)
                   for payload, _ in captured for section in payload.sections)
        assert [len(pickle.dumps(payload)) for payload, _ in captured] == bare
        for payload, _ in captured:
            thawed = pickle.loads(pickle.dumps(payload))
            assert thawed == payload
            assert not any("_resolved" in vars(section)
                           for section in thawed.sections)
            for section in payload.sections:
                copy_ = dataclasses.replace(section)
                assert copy_ == section and "_resolved" not in vars(copy_)


# ----------------------------------------------------------------------
# restores in running systems
# ----------------------------------------------------------------------
#: (scheme, topology) of the campaigns below.  Only the naive scheme
#: restores checkpoints that hold unvalidated journal records.
_CAMPAIGNS = (("naive", "paper"), ("coordinated", "paper"),
              ("coordinated", "2x2+3"))


@functools.lru_cache(maxsize=None)
def _faulty_schedules(campaign):
    """The random (crash and software fault) schedules of one small
    ``(scheme, topology)`` campaign."""
    scheme, topology = campaign
    config = AuditConfig(scheme=scheme, seed=7, schedules=24,
                         horizon=600.0, topology=topology)
    return config, tuple(s for s in generate_schedules(config)
                         if s.label.startswith("random:"))


def same_baseline(built, expected):
    """Baselines equal as the diff reads them: the same keys in the
    same order, the very same record objects, the same unvalidated
    keys and horizon (``==`` would compare records by value)."""
    if isinstance(expected, LogBaseline):
        return built == expected
    return (list(built.records) == list(expected.records)
            and all(a is b for a, b in zip(built.records.values(),
                                           expected.records.values()))
            and built.unvalidated == expected.unvalidated
            and built.pruned_before == expected.pruned_before)


class RestoreSpy:
    """Runs one schedule recording, per capture, its payload and a deep
    copy of ``make_snapshot()`` at that instant; per first capture after
    a restore, the restored payload and the capture's; and per delta
    diffed at such a capture, the baseline it read beside
    ``JournalBaseline.of`` / ``LogBaseline.of`` taken at the restore."""

    def __init__(self):
        self.captures = []
        self.firsts = []
        self.baselines = []
        self._restored = {}
        self._expected = {}
        self._inexpressible = False

    def run(self, campaign, schedule):
        config, _ = _faulty_schedules(campaign)
        restore_from = FtProcess.restore_from
        capture_checkpoint = FtProcess.capture_checkpoint
        journal_delta, log_delta = sections.journal_delta, sections.log_delta

        def spy_restore(process, checkpoint, reason):
            distance = restore_from(process, checkpoint, reason)
            self._restored[process] = checkpoint.payload
            for live in (process.journal_sent, process.journal_recv):
                self._expected[id(live)] = (live, JournalBaseline.of(live))
            log = process.msg_log
            self._expected[id(log)] = (log, LogBaseline.of(log))
            return distance

        def spy_capture(process, *args, **kwargs):
            self._inexpressible = False
            checkpoint = capture_checkpoint(process, *args, **kwargs)
            self.captures.append((checkpoint.payload,
                                  copy.deepcopy(process.make_snapshot())))
            restored = self._restored.pop(process, None)
            if restored is not None:
                self.firsts.append((restored, checkpoint.payload,
                                    process.snapshot_encoder.max_chain,
                                    self._inexpressible))
            for live in (process.journal_sent, process.journal_recv,
                         process.msg_log):
                self._expected.pop(id(live), None)
            return checkpoint

        def spy_delta(diff):
            def spy(live, base):
                expected = self._expected.pop(id(live), None)
                if expected is not None:
                    self.baselines.append((base, expected[1]))
                delta = diff(live, base)
                if delta is None:
                    self._inexpressible = True
                return delta
            return spy

        with mock.patch.object(FtProcess, "restore_from", spy_restore), \
                mock.patch.object(FtProcess, "capture_checkpoint",
                                  spy_capture), \
                mock.patch.object(sections, "journal_delta",
                                  spy_delta(journal_delta)), \
                mock.patch.object(sections, "log_delta",
                                  spy_delta(log_delta)):
            build_audit_system(config, schedule).run()
        return self


def _section(payload, name):
    [section] = [s for s in payload.sections if s.section == name]
    return section


_restoring_runs = st.sampled_from(_CAMPAIGNS).flatmap(
    lambda campaign: st.tuples(
        st.just(campaign),
        st.sampled_from(_faulty_schedules(campaign)[1])))


class TestRestoredChains:
    """A restore continues the delta chains (``SnapshotEncoder.rebase``
    from ``FtProcess.restore_from``): over schedules with crashes and
    software faults on ``paper`` and ``2x2+3``, hardware and software
    rollbacks alike."""

    @settings(max_examples=16, deadline=None)
    @given(_restoring_runs)
    def test_every_capture_decodes_to_its_instant(self, run):
        """Every payload, replayed from its chain's full base (a pickled
        copy remembers no resolved value), is the state at its capture
        — deltas chained to a restored section included."""
        spy = RestoreSpy().run(*run)
        assert spy.captures
        for payload, expected in spy.captures:
            assert full_replay(payload) == expected

    @settings(max_examples=12, deadline=None)
    @given(_restoring_runs)
    def test_first_capture_after_a_restore_chains_to_it(self, run):
        spy = RestoreSpy().run(*run)
        chained = 0
        for restored, payload, max_chain, inexpressible in spy.firsts:
            for name in ("journals", "msg_log"):
                base, section = _section(restored, name), _section(payload,
                                                                   name)
                if base.depth + 1 >= max_chain or (
                        name == "msg_log" and inexpressible):
                    assert section.full and section.depth == 0
                else:
                    assert section.base is base
                    assert section.depth == base.depth + 1
                    chained += 1
        if spy.firsts:
            assert chained

    @settings(max_examples=16, deadline=None)
    @given(_restoring_runs)
    def test_the_restored_baseline_is_the_one_of_the_restore(self, run):
        """What the first delta after a restore diffs against is what
        ``JournalBaseline.of`` / ``LogBaseline.of`` gave at the restore:
        the same records, by identity, in the same order."""
        spy = RestoreSpy().run(*run)
        assert len(spy.baselines) >= 2 * sum(
            not _section(payload, "journals").full
            for _, payload, _, _ in spy.firsts)
        for built, expected in spy.baselines:
            assert same_baseline(built, expected)

    def test_the_schedules_restore_and_chain(self):
        """The runs above are not vacuous: in each campaign some
        schedule restores and chains its next capture to it, and the
        naive one restores unvalidated journal records.  The first
        schedules of each campaign hold to the properties above
        whatever examples were drawn."""
        for campaign in _CAMPAIGNS:
            spies = [RestoreSpy().run(campaign, schedule)
                     for schedule in _faulty_schedules(campaign)[1][:4]]
            for spy in spies:
                for payload, expected in spy.captures:
                    assert full_replay(payload) == expected
                for built, expected in spy.baselines:
                    assert same_baseline(built, expected)
            assert any(
                _section(payload, "journals").base
                is _section(restored, "journals")
                for spy in spies for restored, payload, _, _ in spy.firsts)
            assert any(spy.baselines for spy in spies)
            if campaign[0] == "naive":
                assert any(base.unvalidated for spy in spies
                           for base, _ in spy.baselines
                           if isinstance(base, JournalBaseline))
