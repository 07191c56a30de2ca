"""Unit tests for the trace recorder."""

from repro.sim.trace import TraceRecorder
from repro.types import ProcessId


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
