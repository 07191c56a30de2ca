"""Tests for the on-disk campaign result cache."""

import dataclasses
import multiprocessing
import re
from pathlib import Path

import pytest

import repro
from repro.parallel.cache import (
    CacheKey,
    ResultCache,
    campaign_fingerprint,
    config_fingerprint,
    default_cache_dir,
)
from repro.parallel.cache import _record as cache_record

from blob_damage import BLOB_DAMAGE, each_bit_flip, foreign_blob


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

    def test_the_folded_version_is_the_only_version(self):
        """``pyproject.toml`` reads the version every cache key folds
        in; it states none of its own to drift from it."""
        pyproject = (Path(repro.__file__).parents[2]
                     / "pyproject.toml").read_text(encoding="utf-8")
        assert 'version = {attr = "repro._version.__version__"}' in pyproject
        assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)


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


KEY = CacheKey("fig7:r100", 2001, 0, "fp")
SAMPLES = [1.0, 2.5]
NEIGHBOUR = CacheKey("fig7:r100", 2001, 1, "fp")


def _two_cells(root):
    """A cache holding ``KEY`` and ``NEIGHBOUR``; ``KEY``'s ref and blob
    paths."""
    cache = ResultCache(root)
    cache.put(KEY, SAMPLES)
    cache.put(NEIGHBOUR, [3.0])
    ref = root / "refs" / f"cell-{KEY.digest()}"
    return cache, ref, root / "blobs" / ref.read_text()


def _moved(**coordinates) -> bytes:
    """``KEY``'s cell as ``put`` would store it at other coordinates."""
    return cache_record(dataclasses.replace(KEY, **coordinates), SAMPLES)


#: name -> damage(cas, ref path, blob path): digest-valid blobs under
#: ``KEY``'s ref that are not the record ``put`` writes for ``KEY``.
WRONG_RECORD = {
    "not-json": lambda cas, ref, blob: foreign_blob(cas, ref, b"{not json"),
    "not-utf8": lambda cas, ref, blob: foreign_blob(cas, ref, b"\xff\xfe{}"),
    "not-an-object": lambda cas, ref, blob: foreign_blob(cas, ref, b"[1.0]"),
    "too-deep-to-parse": lambda cas, ref, blob:
        foreign_blob(cas, ref, b"[" * 100_000),
    "no-samples": lambda cas, ref, blob:
        foreign_blob(cas, ref, b'{"label":"fig7:r100"}'),
    "neighbour-cell": lambda cas, ref, blob:
        ref.write_text((ref.parent / f"cell-{NEIGHBOUR.digest()}")
                       .read_text()),
    "other-label": lambda cas, ref, blob:
        foreign_blob(cas, ref, _moved(label="fig7:r60")),
    "other-seed": lambda cas, ref, blob:
        foreign_blob(cas, ref, _moved(master_seed=2002)),
    "other-fingerprint": lambda cas, ref, blob:
        foreign_blob(cas, ref, _moved(fingerprint="fq")),
    "false-for-replication-0": lambda cas, ref, blob:
        foreign_blob(cas, ref, _moved(replication=False)),
    "string-samples": lambda cas, ref, blob:
        foreign_blob(cas, ref, cache_record(KEY, "oops")),
    "quoted-samples": lambda cas, ref, blob:
        foreign_blob(cas, ref, cache_record(KEY, ["1.0", "2.5"])),
    "nested-samples": lambda cas, ref, blob:
        foreign_blob(cas, ref, cache_record(KEY, [[1.0], [2.5]])),
    "integer-samples": lambda cas, ref, blob:
        foreign_blob(cas, ref, cache_record(KEY, [1, 2])),
}


def _assert_each_row_misses(tmp_path, rows):
    """Every row is a counted miss — never a raise, never other samples
    — and leaves the neighbouring cell served."""
    for name, damage in sorted(rows.items()):
        cache, ref, blob = _two_cells(tmp_path / name)
        damage(cache.cas, ref, blob)
        reader = ResultCache(tmp_path / name)
        assert reader.get(KEY) is None, name
        assert (reader.hits, reader.misses) == (0, 1), name
        assert reader.get(NEIGHBOUR) == [3.0], name
        # Recovery is the level below: recompute, store, serve again.
        reader.put(KEY, SAMPLES)
        assert reader.get(KEY) == SAMPLES, name


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
        assert [p.name for p in tmp_path.rglob("*")
                if ".tmp" in p.name] == []

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("fig7:r60", 2001, 0, "abc")
        assert cache.get(key) is None
        cache.put(key, [1.0, 2.5])
        assert cache.get(key) == [1.0, 2.5]
        assert cache.hits == 1 and cache.misses == 1

    def test_one_ref_one_blob_per_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, SAMPLES)
        cache.put(NEIGHBOUR, [3.0])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs", "refs"]
        refs = sorted(p.name for p in (tmp_path / "refs").iterdir())
        assert refs == sorted(f"cell-{key.digest()}"
                              for key in (KEY, NEIGHBOUR))
        assert sorted(p.name for p in (tmp_path / "blobs").iterdir()) == \
            sorted((tmp_path / "refs" / ref).read_text() for ref in refs)
        # Re-storing a pure cell rewrites nothing.
        cache.put(KEY, SAMPLES)
        assert cache.cas.puts == 2 and cache.cas.dedup_puts == 1

    def test_fingerprint_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CacheKey("l", 1, 0, "old"), [1.0])
        assert cache.get(CacheKey("l", 1, 0, "new")) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        """The blob store's damage rows: files that no longer hold what
        was written."""
        _assert_each_row_misses(tmp_path, BLOB_DAMAGE)

    def test_wrong_shape_is_a_miss(self, tmp_path):
        """Digest-valid blobs that are not this cell's record."""
        _assert_each_row_misses(tmp_path, WRONG_RECORD)

    def test_every_single_bit_flip_is_a_miss(self, tmp_path):
        """Exhaustive over the stored blob — coordinates and samples —
        and its ref: no flipped bit is served, least of all as other
        samples."""
        cache, ref, blob = _two_cells(tmp_path)
        for path in (blob, ref):
            for bit in each_bit_flip(path):
                assert cache.get(KEY) is None, f"{path.parent.name} bit {bit}"
        assert cache.misses == 8 * (blob.stat().st_size + ref.stat().st_size)
        assert cache.get(KEY) == SAMPLES
        assert cache.get(NEIGHBOUR) == [3.0]

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for rep in range(3):
            cache.put(CacheKey("l", 1, rep, ""), [float(rep)])
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert not list((tmp_path / "refs").iterdir())
        assert not list((tmp_path / "blobs").iterdir())

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
