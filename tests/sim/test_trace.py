"""Unit tests for the trace recorder."""

import pickle

import pytest

from repro.audit import (
    AuditConfig,
    FaultSchedule,
    OnlineAuditor,
    build_audit_system,
)
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.types import ProcessId
from repro.warmstart.image import capture, resume


def loaded_recorder():
    trace = TraceRecorder()
    trace.record(1.0, "checkpoint.volatile.type-1", ProcessId("P1"), work=1.0)
    trace.record(2.0, "checkpoint.stable", ProcessId("P2"), epoch=1)
    trace.record(3.0, "at.pass", ProcessId("P1"))
    trace.record(4.0, "checkpoint.volatile.type-2", ProcessId("P1"))
    return trace


class TestRecording:
    def test_disabled_recorder_drops_records(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "x", None)
        assert len(trace) == 0

    def test_len_counts_records(self):
        assert len(loaded_recorder()) == 4

    def test_iteration_yields_in_order(self):
        times = [rec.time for rec in loaded_recorder()]
        assert times == [1.0, 2.0, 3.0, 4.0]


class TestQueries:
    def test_category_prefix_filter(self):
        trace = loaded_recorder()
        assert len(trace.records("checkpoint")) == 3
        assert len(trace.records("checkpoint.volatile")) == 2

    def test_process_filter(self):
        trace = loaded_recorder()
        assert len(trace.records(process=ProcessId("P1"))) == 3

    def test_combined_filters(self):
        trace = loaded_recorder()
        recs = trace.records("checkpoint", ProcessId("P1"))
        assert len(recs) == 2

    def test_time_window(self):
        trace = loaded_recorder()
        assert len(trace.records(since=2.0, until=3.0)) == 2

    def test_last(self):
        trace = loaded_recorder()
        last = trace.last("checkpoint.volatile")
        assert last is not None and last.time == 4.0

    def test_last_no_match_returns_none(self):
        assert loaded_recorder().last("nothing") is None

    def test_count(self):
        assert loaded_recorder().count("at.") == 1

    def test_categories_sorted_unique(self):
        cats = loaded_recorder().categories()
        assert cats == sorted(set(cats))
        assert "at.pass" in cats

    def test_record_data_is_captured(self):
        trace = loaded_recorder()
        rec = trace.records("checkpoint.stable")[0]
        assert rec.data == {"epoch": 1}


class TestCategoryFilter:
    def test_keeps_only_matching_prefixes(self):
        trace = TraceRecorder(categories=("checkpoint.volatile", "at."))
        trace.record(1.0, "checkpoint.volatile.type-1", None)
        trace.record(2.0, "checkpoint.stable", None)
        trace.record(3.0, "at.pass", None)
        trace.record(4.0, "blocking.start", None)
        assert [rec.category for rec in trace] == \
            ["checkpoint.volatile.type-1", "at.pass"]

    def test_wants_reflects_filter(self):
        trace = TraceRecorder(categories=("blocking.",))
        assert trace.wants("blocking.start")
        assert not trace.wants("checkpoint.stable")

    def test_wants_without_filter_accepts_everything(self):
        assert TraceRecorder().wants("anything.at.all")

    def test_disabled_recorder_wants_nothing(self):
        trace = TraceRecorder(enabled=False, categories=("blocking.",))
        assert not trace.wants("blocking.start")

    def test_empty_filter_drops_everything(self):
        trace = TraceRecorder(categories=())
        trace.record(1.0, "at.pass", None)
        assert len(trace) == 0
        assert not trace.wants("at.pass")


class TestSubscription:
    def test_named_listener_hears_only_its_names(self):
        trace = TraceRecorder()
        named, everything = [], []
        trace.subscribe(named.append, names=("at.pass", "blocking.start"))
        trace.subscribe(everything.append)
        for t, category in enumerate(("at.pass", "at.passed",
                                      "blocking.start", "blocking",
                                      "checkpoint.stable")):
            trace.record(float(t), category, None)
        # Exact names, not prefixes.
        assert [rec.category for rec in named] == ["at.pass",
                                                   "blocking.start"]
        assert everything == list(trace)

    def test_filtered_out_records_reach_no_listener(self):
        trace = TraceRecorder(categories=("blocking.",))
        heard = []
        trace.subscribe(heard.append, names=("at.pass",))
        trace.subscribe(heard.append)
        trace.record(1.0, "at.pass", None)
        assert heard == [] and len(trace) == 0

    def test_unsubscribe_detaches_only_that_listener(self):
        trace = TraceRecorder()
        first, second = [], []
        trace.subscribe(first.append, names=("at.pass",))
        unsubscribe = trace.subscribe(second.append)
        trace.record(1.0, "at.pass", None)
        unsubscribe()
        trace.unsubscribe(second.append)  # already gone: a no-op
        trace.record(2.0, "at.pass", None)
        assert [rec.time for rec in first] == [1.0, 2.0]
        assert [rec.time for rec in second] == [1.0]

    def test_a_listener_may_unsubscribe_while_a_record_is_dispatched(self):
        trace = TraceRecorder()
        heard = []

        def once(rec):
            heard.append(("once", rec.time))
            trace.unsubscribe(once)
        trace.subscribe(once)
        trace.subscribe(lambda rec: heard.append(("always", rec.time)))
        trace.record(1.0, "x", None)
        trace.record(2.0, "x", None)
        assert heard == [("once", 1.0), ("always", 1.0), ("always", 2.0)]


class TestTraceRecord:
    def test_pickle_round_trip_is_equal(self):
        for rec in loaded_recorder():
            thawed = pickle.loads(pickle.dumps(rec))
            assert type(thawed) is TraceRecord
            assert thawed == rec and thawed is not rec
            assert (thawed.time, thawed.category, thawed.process,
                    thawed.data) == (rec.time, rec.category, rec.process,
                                     rec.data)

    def test_read_only_by_contract(self):
        """A record has its four fields and nowhere to grow more, and
        nothing writes one after it is kept: warm-start images share
        records between forks on that promise.  The records an audited
        run kept by mid-run are, at its end, what a pickled copy taken
        then says they were."""
        rec = TraceRecord(1.0, "at.pass", ProcessId("P1"), {"sn": 3})
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.extra = 1
        with pytest.raises(TypeError):
            hash(rec)  # ``data`` is a dict: records are not keys
        system, auditor = _audited(until=200.0)
        kept = list(system.trace)
        frozen = pickle.dumps(kept)
        system.run()
        auditor.finalize()
        assert auditor.epochs_checked > 5
        assert list(system.trace)[:len(kept)] == pickle.loads(frozen)

    def test_equality_is_by_value(self):
        a = TraceRecord(1.0, "at.pass", ProcessId("P1"), {"sn": 1})
        assert a == TraceRecord(1.0, "at.pass", ProcessId("P1"), {"sn": 1})
        assert a != TraceRecord(1.0, "at.pass", ProcessId("P1"), {"sn": 2})
        assert a != (1.0, "at.pass", ProcessId("P1"), {"sn": 1})
        assert TraceRecord(0.0, "x", None).data == {}


def _audited(until=None):
    system = build_audit_system(
        AuditConfig(scheme="coordinated", seed=7, schedules=1),
        FaultSchedule(label="clean", system_seed=11))
    auditor = OnlineAuditor(system)
    system.run(until=until)
    return system, auditor


def _auditor_pairs(system):
    return [(names, listener) for names, listener in system.trace._listeners
            if getattr(listener, "__func__", None) is OnlineAuditor._on_record]


class TestAuditorSubscription:
    def test_subscription_is_the_hook_table(self):
        system, auditor = _audited(until=50.0)
        [(names, listener)] = _auditor_pairs(system)
        assert names == frozenset(OnlineAuditor.HOOKS)
        assert listener == auditor._on_record
        # Every category _on_record handles is subscribed, and it
        # handles nothing else.
        for category in names:
            assert category in OnlineAuditor.HOOKS
        with pytest.raises(KeyError):
            auditor._on_record(TraceRecord(0.0, "at.pass", None))

    def test_auditor_hears_exactly_its_hook_records(self, monkeypatch):
        heard = []
        on_record = OnlineAuditor._on_record

        def counting(auditor, rec):
            heard.append(rec)
            on_record(auditor, rec)
        monkeypatch.setattr(OnlineAuditor, "_on_record", counting)
        system, auditor = _audited()
        auditor.finalize()
        hooks = [rec for rec in system.trace
                 if rec.category in OnlineAuditor.HOOKS]
        assert heard == hooks
        assert 0 < len(heard) < len(system.trace)

    def test_an_auditor_unpickled_from_an_image_still_unsubscribes(self):
        system, auditor = _audited(until=100.0)
        thawed_system, thawed = resume(capture(system, auditor))
        assert len(_auditor_pairs(thawed_system)) == 1
        thawed_system.run(until=150.0)
        thawed.finalize()
        assert thawed_system.trace._listeners == ()
        # The original is untouched by the copy's detaching.
        assert len(_auditor_pairs(system)) == 1
        auditor.finalize()
        assert system.trace._listeners == ()
