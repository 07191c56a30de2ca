"""Tests for the on-disk campaign result cache."""

import json
import multiprocessing

import pytest

from repro.parallel.cache import (
    CacheKey,
    ResultCache,
    campaign_fingerprint,
    config_fingerprint,
    default_cache_dir,
)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint({"a": 1}) == config_fingerprint({"a": 1})

    def test_sensitive_to_values(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_dict_order_irrelevant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == \
            config_fingerprint({"b": 2, "a": 1})

    def test_dataclasses_and_enums(self):
        from repro.coordination.scheme import Scheme
        from repro.experiments.figure7 import Figure7Config
        a = config_fingerprint((Figure7Config(), Scheme.COORDINATED))
        b = config_fingerprint((Figure7Config(), Scheme.WRITE_THROUGH))
        c = config_fingerprint((Figure7Config(horizon=1.0),
                                Scheme.COORDINATED))
        assert len({a, b, c}) == 3

    def test_campaign_fingerprint_folds_in_version(self):
        assert campaign_fingerprint({"x": 1}) != config_fingerprint({"x": 1})


class TestCacheKey:
    def test_digest_distinguishes_every_coordinate(self):
        base = CacheKey("lbl", 1, 0, "fp")
        variants = [
            CacheKey("other", 1, 0, "fp"),
            CacheKey("lbl", 2, 0, "fp"),
            CacheKey("lbl", 1, 1, "fp"),
            CacheKey("lbl", 1, 0, "fp2"),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == 5


def _hammer_one_key(root, barrier, rounds):
    cache = ResultCache(root)
    key = CacheKey("shared", 1, 0, "fp")
    barrier.wait()  # both writers in their put loops together
    for n in range(rounds):
        cache.put(key, [float(n)])


class TestResultCache:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork for cheap process fixtures")
    def test_two_writers_of_one_key_never_collide(self, tmp_path):
        """Two processes sharing the cache directory and racing on one
        cell: neither may move the other's temp file away (a shared
        temp name raised FileNotFoundError in the loser)."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_hammer_one_key,
                             args=(tmp_path, barrier, 400))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert ResultCache(tmp_path).get(
            CacheKey("shared", 1, 0, "fp")) == [399.0]
        assert [p.name for p in tmp_path.iterdir()
                if ".tmp" in p.name] == []

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("fig7:r60", 2001, 0, "abc")
        assert cache.get(key) is None
        cache.put(key, [1.0, 2.5])
        assert cache.get(key) == [1.0, 2.5]
        assert cache.hits == 1 and cache.misses == 1

    def test_fingerprint_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CacheKey("l", 1, 0, "old"), [1.0])
        assert cache.get(CacheKey("l", 1, 0, "new")) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("l", 1, 0, "")
        cache.put(key, [3.0])
        (tmp_path / f"{key.digest()}.json").write_text("{not json")
        assert cache.get(key) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("l", 1, 0, "")
        (tmp_path / f"{key.digest()}.json").write_text(
            json.dumps({"samples": "oops"}))
        assert cache.get(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for rep in range(3):
            cache.put(CacheKey("l", 1, rep, ""), [float(rep)])
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_empty_samples_cacheable(self, tmp_path):
        # A replication with no crash windows legitimately yields zero
        # samples; that must cache as "computed, empty", not as a miss.
        cache = ResultCache(tmp_path)
        key = CacheKey("l", 1, 0, "")
        cache.put(key, [])
        assert cache.get(key) == []

    def test_default_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ResultCache().root == tmp_path / "custom"
