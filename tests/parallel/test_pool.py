"""Tests for replicated campaigns over the pool and for parallel_map.

The campaign task is a module-level pure function of the seed, so it
pickles into workers and is bit-for-bit reproducible in-process.
"""

import functools
import io
import multiprocessing
import os
import random

import pytest

from repro.experiments.runner import replication_seeds, run_campaign
from repro.parallel import supervisor
from repro.parallel.cache import CacheKey, ResultCache
from repro.parallel.pool import default_worker_count, parallel_map
from repro.parallel.progress import ProgressReporter


def _task(seed):
    rng = random.Random(seed)
    return [rng.uniform(-5.0, 5.0) for _ in range(1 + seed % 4)]


def _never(seed):
    raise AssertionError(f"replication with seed {seed} was not cached")


def _negate(x):
    return -x


def _same(result, reference):
    """Bit-for-bit: the sample sequence and every Welford field."""
    assert result.samples == reference.samples
    assert vars(result.stat) == vars(reference.stat)


def _prefilled(root, cells):
    """A cache holding the given replications of campaign ("c", 7)."""
    cache = ResultCache(root)
    seeds = replication_seeds(7, "c", 8)
    for rep_index in cells:
        cache.put(CacheKey("c", 7, rep_index, "fp"), _task(seeds[rep_index]))
    return cache


class TestMakeShards:
    """``run_campaign`` makes one shard per replication it has to
    compute, and lands each exactly once."""

    def test_empty(self, tmp_path, capsys):
        cache = _prefilled(tmp_path, range(8))
        run_campaign("c", 7, 8, _never, workers=2, cache=cache,
                     fingerprint="fp")
        assert "shard" not in capsys.readouterr().err

    def test_partitions_every_cell_once_in_order(self, tmp_path,
                                                 monkeypatch):
        cache = _prefilled(tmp_path, (1, 4))
        puts = []
        monkeypatch.setattr(cache, "put",
                            lambda key, samples: puts.append(key.replication))
        result = run_campaign("c", 7, 8, _task, workers=3, cache=cache,
                              fingerprint="fp")
        assert sorted(puts) == [0, 2, 3, 5, 6, 7]
        assert result.samples == run_campaign("c", 7, 8, _task).samples

    def test_never_more_shards_than_cells(self, capsys):
        run_campaign("one", 7, 1, _task, workers=8)
        err = capsys.readouterr().err
        assert err.count("done in") == 1 and "[1/1]" in err


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("cached", ["none", "empty", "full", "half"])
    def test_same_samples_and_stat_exactly(self, tmp_path, workers, cached):
        reference = run_campaign("c", 7, 8, _task)
        cells = {"none": None, "empty": (), "full": range(8),
                 "half": (0, 3, 4, 7)}[cached]
        cache = None if cells is None else _prefilled(tmp_path, cells)
        result = run_campaign("c", 7, 8, _task, workers=workers,
                              cache=cache, fingerprint="fp")
        _same(result, reference)
        if cache is not None:
            assert cache.hits == len(cells)
            assert len(cache) == 8

    def test_same_samples_and_mean(self):
        serial = run_campaign("camp", 99, 12, _task)
        parallel = run_campaign("camp", 99, 12, _task, workers=3)
        _same(parallel, serial)
        assert parallel.mean == serial.mean
        assert parallel.stat.variance == serial.stat.variance

    def test_uses_the_same_replication_seeds(self):
        # The pairing guarantee: running cells in workers must not
        # change which seeds run.
        result = run_campaign("pair", 5, 8, _task, workers=2)
        expected = []
        for seed in replication_seeds(5, "pair", 8):
            expected.extend(_task(seed))
        assert result.samples == expected

    def test_unpicklable_task_degrades_to_serial(self, capsys):
        serial = run_campaign("lam", 3, 4, lambda seed: [float(seed % 7)])
        parallel = run_campaign("lam", 3, 4,
                                lambda seed: [float(seed % 7)], workers=2)
        _same(parallel, serial)
        assert "not picklable" in capsys.readouterr().err


def _crashing_task(marker_dir, seed):
    """``run_one`` that kills its worker process the first time it sees
    each seed; retries (and the in-process fallback) then succeed."""
    marker = os.path.join(marker_dir, f"seed-{seed}")
    in_worker = multiprocessing.current_process().name != "MainProcess"
    if in_worker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return _task(seed)


class TestSupervisedCampaign:
    def test_killed_worker_retried_and_aggregates_correct(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(supervisor, "MAX_RETRIES", 3)
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.0)
        run_one = functools.partial(_crashing_task, str(tmp_path))
        result = run_campaign("crashy", 21, 6, run_one, workers=2)
        _same(result, run_campaign("crashy", 21, 6, _task))
        assert "worker process died" in capsys.readouterr().err


class TestCaching:
    def test_second_run_serves_from_cache(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        first = run_campaign("c", 7, 6, _task, workers=2, cache=cache,
                             fingerprint="fp")
        assert len(cache) == 6
        capsys.readouterr()
        cache2 = ResultCache(tmp_path)
        second = run_campaign("c", 7, 6, _task, workers=2, cache=cache2,
                              fingerprint="fp")
        assert cache2.hits == 6
        err = capsys.readouterr().err
        assert "6 replication(s) served from cache" in err
        assert "shard" not in err  # nothing left to compute
        _same(second, first)

    def test_partial_cache_computes_only_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign("c", 7, 3, _task, cache=cache, fingerprint="fp")
        full = run_campaign("c", 7, 6, _task, workers=2, cache=cache,
                            fingerprint="fp")
        assert cache.hits == 3
        assert full.samples == run_campaign("c", 7, 6, _task).samples

    def test_serial_path_also_caches(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign("s", 11, 4, _task, cache=cache, fingerprint="x")
        assert len(cache) == 4
        cache.hits = 0
        again = run_campaign("s", 11, 4, _task, cache=cache, fingerprint="x")
        assert cache.hits == 4
        assert again.samples == run_campaign("s", 11, 4, _task).samples

    def test_different_fingerprint_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign("s", 11, 2, _task, cache=cache, fingerprint="a")
        run_campaign("s", 11, 2, _task, cache=cache, fingerprint="b")
        assert len(cache) == 4


class TestProgressIntegration:
    def test_telemetry_counts_shards_and_samples(self, capsys):
        result = run_campaign("camp", 42, 8, _task, workers=2)
        lines = capsys.readouterr().err.splitlines()
        assert all(line.startswith("[camp] ") for line in lines)
        # One line per cell as it lands, then the summary.
        assert sum("shard" in line and "done in" in line
                   for line in lines) == 8
        assert "[8/8]" in lines[-2]
        assert lines[-1].startswith(
            f"[camp] campaign done: 8 replication(s), "
            f"{len(result.samples)} samples")

    def test_a_serial_campaign_prints_nothing(self, capsys):
        run_campaign("camp", 42, 3, _task)
        assert capsys.readouterr().err == ""


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(_negate, [3, 1, 2], workers=2) == [-3, -1, -2]

    def test_serial_when_workers_none(self):
        assert parallel_map(_negate, [4]) == [-4]

    def test_on_done_fires_once_per_item_in_the_caller(self):
        landed = {}
        parallel_map(_negate, [3, 4, 5], workers=2,
                     on_done=lambda i, r: landed.setdefault(
                         i, (r, os.getpid())))
        assert landed == {i: (-x, os.getpid())
                          for i, x in enumerate([3, 4, 5])}

    def test_unpicklable_fn_degrades(self):
        progress = ProgressReporter(stream=io.StringIO())
        out = parallel_map(lambda v: v + 1, [1, 2], workers=2,
                           progress=progress)
        assert out == [2, 3]
        assert any("not picklable" in e for e in progress.events)


def test_default_worker_count_positive():
    assert default_worker_count() >= 1
