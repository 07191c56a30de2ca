"""Tests for the progress/telemetry reporter."""

import io
import json

from repro.parallel.progress import ProgressReporter


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_reporter(stream=None, enabled=True):
    clock = FakeClock()
    reporter = ProgressReporter("camp", stream=stream or io.StringIO(),
                                enabled=enabled, clock=clock)
    return reporter, clock


class TestTelemetry:
    def test_throughput_and_eta(self):
        reporter, clock = make_reporter()
        reporter.start(total_shards=4)
        clock.now += 10.0
        reporter.shard_done(0, replications=2, samples=20, wall_time=10.0)
        reporter.shard_done(1, replications=2, samples=20, wall_time=9.0)
        snap = reporter.snapshot()
        assert snap["shards_done"] == 2
        assert snap["samples"] == 40
        assert snap["samples_per_sec"] == 4.0
        # 2 shards in 10s -> 2 remaining shards ~ 10 more seconds.
        assert snap["eta_seconds"] == 10.0
        assert snap["per_shard_wall_seconds"] == [10.0, 9.0]

    def test_eta_zero_when_done(self):
        reporter, clock = make_reporter()
        reporter.start(total_shards=1)
        clock.now += 1.0
        reporter.shard_done(0, replications=1, samples=5, wall_time=1.0)
        assert reporter.snapshot()["eta_seconds"] == 0.0

    def test_eta_unknown_before_first_shard(self):
        reporter, clock = make_reporter()
        reporter.start(total_shards=3)
        assert reporter.snapshot()["eta_seconds"] is None

    def test_finish_freezes_elapsed(self):
        reporter, clock = make_reporter()
        reporter.start(total_shards=1)
        clock.now += 5.0
        reporter.shard_done(0, replications=1, samples=10, wall_time=5.0)
        reporter.finish()
        clock.now += 100.0
        assert reporter.snapshot()["elapsed_seconds"] == 5.0

    def test_retry_and_degrade_events(self):
        reporter, _ = make_reporter()
        reporter.start(total_shards=2)
        reporter.shard_retried(1, attempt=1, reason="worker process died")
        reporter.degraded("shard 1 exceeded retries")
        snap = reporter.snapshot()
        assert snap["retries"] == 1
        assert snap["fallbacks"] == 1
        assert any("worker process died" in e for e in snap["events"])


class TestEmission:
    def test_lines_go_to_stream(self):
        stream = io.StringIO()
        reporter, clock = make_reporter(stream=stream)
        reporter.start(total_shards=1, cached_replications=2)
        clock.now += 1.0
        reporter.shard_done(0, replications=1, samples=3, wall_time=1.0)
        reporter.finish()
        out = stream.getvalue()
        assert "[camp]" in out
        assert "from cache" in out
        assert "shard   0 done" in out
        assert "campaign done" in out

    def test_disabled_reporter_is_silent_but_counts(self):
        stream = io.StringIO()
        clock = FakeClock()
        reporter = ProgressReporter("q", stream=stream, enabled=False,
                                    clock=clock)
        reporter.start(total_shards=1)
        reporter.shard_done(0, replications=1, samples=1, wall_time=0.1)
        assert stream.getvalue() == ""
        assert reporter.snapshot()["shards_done"] == 1

    def test_snapshot_is_json_safe(self):
        reporter, clock = make_reporter()
        reporter.start(total_shards=1)
        clock.now += 2.0
        reporter.shard_done(0, replications=1, samples=8, wall_time=2.0)
        data = json.loads(json.dumps(reporter.snapshot()))
        assert data["samples"] == 8
        assert data["total_shards"] == 1
