"""Tests for worker supervision: retry, timeout, degradation.

The crash/hang worker functions are module-level so they pickle into
worker processes; the ones that must misbehave only inside a worker
key off the process name.
"""

import concurrent.futures
import multiprocessing
import os
import random
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import supervisor
from repro.parallel.supervisor import (
    ShardSupervisor,
    backoff,
    multiprocessing_supported,
)


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


def _double(x):
    return x * 2


def _crash_once(payload):
    """Kill the worker process the first time each marker is seen; the
    supervised retry then finds the marker and succeeds."""
    marker_dir, x = payload
    marker = os.path.join(marker_dir, f"seen-{x}")
    if _in_worker() and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return x * 10


def _always_crash_in_worker(x):
    if _in_worker():
        os._exit(1)
    return x + 100


def _hang_in_worker(x):
    if _in_worker():
        time.sleep(1.0)
    return x + 7


def _always_raise(x):
    raise ValueError(f"bad cell {x}")


@pytest.fixture
def fast_supervisor(monkeypatch):
    """A supervisor under a short policy (the module constants,
    monkeypatched) that records its sleeps instead of taking them."""
    def build(shard_timeout=30.0, max_retries=1, backoff_base=0.0, rng=None):
        monkeypatch.setattr(supervisor, "SHARD_TIMEOUT", shard_timeout)
        monkeypatch.setattr(supervisor, "MAX_RETRIES", max_retries)
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", backoff_base)
        slept = []
        return ShardSupervisor(sleep=slept.append, rng=rng), slept
    return build


class _Ceiling:
    """An RNG whose every draw is the top of the interval."""

    @staticmethod
    def uniform(_low, high):
        return high


class TestSerialPaths:
    def test_workers_one_runs_in_process(self, fast_supervisor):
        sup, _ = fast_supervisor()
        assert sup.run(_double, [1, 2, 3], workers=1) == [2, 4, 6]

    def test_single_shard_runs_in_process(self, fast_supervisor):
        sup, _ = fast_supervisor()
        assert sup.run(_double, [21], workers=8) == [42]

    def test_unsupported_platform_degrades(self, monkeypatch,
                                           fast_supervisor):
        monkeypatch.setattr(
            "repro.parallel.supervisor.multiprocessing_supported",
            lambda: False)
        sup, _ = fast_supervisor()
        assert sup.run(_double, [1, 2], workers=4) == [2, 4]
        assert any("degraded" in e for e in sup.events)


class TestParallelExecution:
    def test_results_align_with_shards(self, fast_supervisor):
        sup, _ = fast_supervisor()
        assert sup.run(_double, list(range(6)), workers=2) == \
            [0, 2, 4, 6, 8, 10]

    def test_on_shard_done_fires_once_per_shard(self, fast_supervisor):
        sup, _ = fast_supervisor()
        landed = {}
        sup.run(_double, [3, 4], workers=2,
                on_shard_done=lambda i, r: landed.setdefault(i, r))
        assert landed == {0: 6, 1: 8}


class TestFailureHandling:
    def test_killed_worker_is_retried_to_completion(self, tmp_path,
                                                    fast_supervisor):
        sup, _ = fast_supervisor(max_retries=3)
        payloads = [(str(tmp_path), x) for x in range(3)]
        assert sup.run(_crash_once, payloads, workers=2) == [0, 10, 20]
        assert any("worker process died" in e for e in sup.events)

    def test_persistent_crasher_degrades_to_in_process(self, fast_supervisor):
        sup, _ = fast_supervisor(max_retries=1)
        assert sup.run(_always_crash_in_worker, [1, 2], workers=2) == \
            [101, 102]
        assert any("running in-process" in e for e in sup.events)

    def test_hung_worker_times_out_then_completes(self, fast_supervisor):
        sup, _ = fast_supervisor(shard_timeout=0.2, max_retries=1)
        assert sup.run(_hang_in_worker, [1, 2], workers=2) == [8, 9]
        assert any("timeout" in e for e in sup.events)

    def test_pool_broken_at_submission_requeues(self, monkeypatch,
                                                fast_supervisor):
        """A worker that dies before every shard is submitted breaks
        the pool under ``submit`` itself: the unsubmitted shards must
        requeue like any other casualty, not kill the campaign."""
        broken = BrokenProcessPool("worker died")

        class Pool:
            rounds = 0

            def __init__(self, **_kwargs):
                Pool.rounds += 1
                self.breaks = Pool.rounds == 1
                self.submitted = 0

            def submit(self, fn, shard):
                self.submitted += 1
                future = concurrent.futures.Future()
                if not self.breaks:
                    future.set_result(fn(shard))
                elif self.submitted == 1:
                    future.set_exception(broken)
                else:
                    raise broken
                return future

            def shutdown(self, **_kwargs):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        sup, _ = fast_supervisor(max_retries=1)
        assert sup.run(_double, [1, 2, 3], workers=2) == [2, 4, 6]
        assert Pool.rounds == 2
        assert sum("worker process died" in e for e in sup.events) == 1

    def test_deterministic_error_finally_surfaces(self, fast_supervisor):
        sup, _ = fast_supervisor(max_retries=1)
        with pytest.raises(ValueError, match="bad cell"):
            sup.run(_always_raise, [5], workers=2)

    def test_backoff_grows_exponentially(self):
        assert [backoff(attempt, _Ceiling) for attempt in (1, 2, 3)] == [
            0.25, 0.5, 1.0]

    def test_backoff_sleep_called_between_retries(self, fast_supervisor):
        sup, slept = fast_supervisor(max_retries=2, backoff_base=0.01)
        sup.run(_always_crash_in_worker, [1, 2], workers=2)
        assert slept, "retry rounds should sleep"


class TestBackoffJitter:
    """Full jitter: sleeps draw from [0, exponential ceiling)."""

    def test_jitter_respects_exponential_ceiling(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.5)
        rng = random.Random(7)
        for attempt in (1, 2, 3, 4):
            ceiling = 0.5 * (2.0 ** (attempt - 1))
            for _ in range(200):
                assert 0.0 <= backoff(attempt, rng) <= ceiling

    def test_jitter_actually_spreads(self):
        rng = random.Random(11)
        draws = {backoff(3, rng) for _ in range(50)}
        assert len(draws) > 40, "full jitter should not collapse"

    def test_seeded_rng_is_deterministic(self):
        first = [backoff(a, random.Random(42)) for a in (1, 2, 3)]
        second = [backoff(a, random.Random(42)) for a in (1, 2, 3)]
        assert first == second

    def test_supervisor_threads_rng_into_sleeps(self, fast_supervisor):
        sup, slept = fast_supervisor(backoff_base=0.125,
                                     rng=random.Random(3))
        sup.run(_always_crash_in_worker, [1, 2], workers=2)
        expected_first = random.Random(3).uniform(0.0, 0.125)
        assert slept and slept[0] == expected_first
        assert all(0.0 <= s <= 0.25 for s in slept)


class TestPlatformProbe:
    def test_current_platform_supported(self):
        assert multiprocessing_supported()
