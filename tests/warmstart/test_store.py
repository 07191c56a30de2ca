"""Image-store tests: keys, LRU bounds, disk layer, lookup strictness."""

import dataclasses
import io
import pickle
import random
import struct

import pytest

from repro.audit.config import AuditConfig
from repro.audit.schedule import FaultSchedule
from repro.warmstart import ForkContext, ImageStore, PrefixKey, SystemImage
from repro.warmstart.image import _HEADER

from blob_damage import BLOB_DAMAGE, each_bit_flip, foreign_blob

CONFIG = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                     horizon=120.0, tb_interval=20.0)

#: What every image of the test sets shares through its table.
SHARED = {"frozen": ["prefix", "state"]}


def _table(*extra) -> ForkContext:
    context = ForkContext()
    context.share_all((SHARED,) + extra)
    return context


TABLE = _table()


def _img(t: float, nbytes: int = 100, context: ForkContext = TABLE
         ) -> SystemImage:
    return SystemImage(
        captured_at=t, context=context,
        dump=context.dumps({"shared": SHARED, "private": bytes(nbytes)}))


def _charged(images) -> int:
    """What a store charges for ``images`` as one set."""
    store = ImageStore()
    store.put(_key(), images)
    return store.stats()["bytes"]


def _key(seed: int = 1, overrides=()) -> PrefixKey:
    return PrefixKey(config_fingerprint="abc", system_seed=seed,
                     overrides=tuple(overrides))


class TestPrefixKey:
    def test_for_schedule_sorts_overrides(self):
        sched = FaultSchedule(label="k", system_seed=9,
                              overrides=(("clock_rho", 0.001),
                                         ("clock_delta", 0.5)),
                              origin="test")
        key = PrefixKey.for_schedule(CONFIG, sched)
        assert key.overrides == (("clock_delta", 0.5), ("clock_rho", 0.001))
        assert key.system_seed == 9
        assert key.config_fingerprint == CONFIG.fingerprint()

    def test_digest_distinguishes_every_coordinate(self):
        base = _key()
        assert base.digest() == _key().digest()
        assert base.digest() != _key(seed=2).digest()
        assert base.digest() != _key(overrides=[("clock_delta", 0.5)]).digest()
        assert base.digest() != PrefixKey("other", 1).digest()


class TestMemoryLayer:
    def test_put_get_round_trip(self):
        store = ImageStore()
        images = [_img(10.0), _img(30.0)]
        store.put(_key(), images)
        assert store.get(_key()) == images
        assert store.get(_key(seed=2)) is None
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1

    def test_put_sorts_by_capture_time(self):
        store = ImageStore()
        store.put(_key(), [_img(30.0), _img(10.0), _img(20.0)])
        assert [img.captured_at for img in store.get(_key())] == \
            [10.0, 20.0, 30.0]

    def test_latest_before_is_strict(self):
        store = ImageStore()
        store.put(_key(), [_img(10.0), _img(20.0), _img(30.0)])
        assert store.latest_before(_key(), 25.0).captured_at == 20.0
        # An image captured exactly at t may already include events the
        # armed fault must interleave with — strictly before only.
        assert store.latest_before(_key(), 20.0).captured_at == 10.0
        assert store.latest_before(_key(), 10.0) is None
        assert store.latest_before(_key(), 1e9).captured_at == 30.0
        assert store.latest_before(_key(seed=2), 25.0) is None

    def test_lru_eviction_bounded_by_bytes(self):
        store = ImageStore(max_bytes=int(2.5 * _charged([_img(10.0)])))
        store.put(_key(seed=1), [_img(10.0)])
        store.put(_key(seed=2), [_img(10.0)])
        store.get(_key(seed=1))  # refresh 1: seed-2 becomes the LRU
        store.put(_key(seed=3), [_img(10.0)])
        assert store.get(_key(seed=2)) is None
        assert store.get(_key(seed=1)) is not None
        assert store.get(_key(seed=3)) is not None
        assert store.stats()["evictions"] == 1

    def test_eviction_always_keeps_newest_set(self):
        store = ImageStore(max_bytes=10)  # smaller than any one set
        store.put(_key(seed=1), [_img(10.0)])
        store.put(_key(seed=2), [_img(10.0)])
        assert store.stats()["sets"] == 1
        assert store.get(_key(seed=2)) is not None

    def test_eviction_order_is_least_recently_used(self):
        # Room for two one-image sets; runs of puts/gets must evict in
        # exact recency order, not insertion order.
        store = ImageStore(max_bytes=2 * _charged([_img(10.0)]))
        store.put(_key(seed=1), [_img(10.0)])
        store.put(_key(seed=2), [_img(10.0)])
        store.get(_key(seed=1))           # recency now: 2, 1
        store.put(_key(seed=3), [_img(10.0)])  # evicts 2
        assert store.get(_key(seed=2)) is None
        store.get(_key(seed=1))           # recency now: 3, 1
        store.put(_key(seed=4), [_img(10.0)])  # evicts 3
        assert store.get(_key(seed=3)) is None
        assert store.get(_key(seed=1)) is not None
        assert store.get(_key(seed=4)) is not None
        assert store.stats()["evictions"] == 2

    def test_one_set_one_table(self):
        with pytest.raises(ValueError):
            ImageStore().put(_key(), [_img(10.0),
                                      _img(20.0, context=_table())])

    def test_bytes_charge_the_table_once_per_set(self):
        """``bytes`` is what the set occupies — its table and every
        dump — not the dumps alone."""
        ballast = bytes(range(256)) * 40
        context = _table(ballast)
        images = [_img(t, context=context) for t in (10.0, 20.0, 30.0)]
        charged = _charged(images)
        dumps = sum(len(img.dump) for img in images)
        assert dumps + len(ballast) < charged < dumps + 2 * len(ballast)


def _rewritten(cas, ref, blob, edit):
    """Point the ref at a digest-valid blob: the set's own record after
    ``edit`` changed it in place."""
    record = pickle.loads(blob.read_bytes())
    edit(record)
    foreign_blob(cas, ref, pickle.dumps(record))


def _cut_table(record):
    # The dumps still reference what the table no longer holds.
    del record["table"]._objects[:]


def _parent_format_dump(table: ForkContext) -> bytes:
    """A dump as the commit before format 2 wrote it, hand-built: it
    opens with the table's tag (no format byte) and names a registered
    RNG stream by an ``("r", index)`` id, which ``list.__getitem__``
    cannot resolve."""
    table.share(random.Random(5).getstate())
    stream = len(table) - 1

    class ParentPickler(pickle.Pickler):
        def persistent_id(self, obj):
            return ("r", stream) if type(obj) is random.Random else None

    body = io.BytesIO()
    ParentPickler(body, protocol=pickle.HIGHEST_PROTOCOL).dump(
        {"rng": random.Random(5)})
    return struct.pack(">8sI", table.tag, len(table)) + body.getvalue()


def _as_the_parent_wrote_it(record):
    table = record["table"]
    record["dumps"] = [(at, _parent_format_dump(table))
                       for at, _dump in record["dumps"]]


def _as_format_5_wrote_it(record):
    # Format 5 thawed a trace recorder with one record list and an
    # acceptance test with an eager stream: its dumps lack the fields
    # this code reads, so the header's format byte turns them away.
    record["dumps"] = [(at, bytes([5]) + dump[1:])
                       for at, dump in record["dumps"]]


def _as_format_6_wrote_it(record):
    # Format 6 thawed a simulator heap of bare events, which this
    # code's run loop would read as entry tuples: the header's format
    # byte turns its dumps away.
    record["dumps"] = [(at, bytes([6]) + dump[1:])
                       for at, dump in record["dumps"]]


def _as_format_7_wrote_it(record):
    # Format 7 thawed nodes whose crash listeners lack the hardware
    # recovery coordinator and stable stores with no retention floor:
    # a thawed run would trim the line a long outage needs.  The
    # header's format byte turns its dumps away.
    record["dumps"] = [(at, bytes([7]) + dump[1:])
                       for at, dump in record["dumps"]]


def _as_format_8_wrote_it(record):
    # Format 8 thawed configs and snapshot encoders that still carry
    # their single-value settings and receive-dedup sets where this
    # code keeps insertion-ordered dicts.  The header's format byte
    # turns its dumps away.
    record["dumps"] = [(at, bytes([8]) + dump[1:])
                       for at, dump in record["dumps"]]


def _as_format_9_wrote_it(record):
    # Format 9 thawed systems that keep a list of fault-injector
    # objects and snapshots whose receive-dedup keys are a dict.  The
    # header's format byte turns its dumps away.
    record["dumps"] = [(at, bytes([9]) + dump[1:])
                       for at, dump in record["dumps"]]


def _as_format_10_wrote_it(record):
    # Format 10 thawed online auditors with no verdict table and a set
    # of pending epochs where this code keeps a dict.  The header's
    # format byte turns its dumps away.
    record["dumps"] = [(at, bytes([10]) + dump[1:])
                       for at, dump in record["dumps"]]


#: name -> damage(cas, ref path, blob path) for one stored set.
DAMAGE = {
    **BLOB_DAMAGE,
    "other-prefix-set": lambda cas, ref, blob:
        ref.write_text((ref.parent / f"imgset-{_key(seed=2).digest()}")
                       .read_text()),
    "unpicklable-set": lambda cas, ref, blob: foreign_blob(
        cas, ref, b"\x80\x05not a pickle at all"),
    "wrong-shape-set": lambda cas, ref, blob:
        foreign_blob(cas, ref, pickle.dumps(
            {"key": dataclasses.asdict(_key()), "table": 7,
             "dumps": [(10.0, b"dump")]})),
    "table-index-out-of-range-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _cut_table),
    "other-table-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob,
                   lambda record: record.update(table=_table())),
    "unordered-dumps-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, lambda record: record["dumps"].reverse()),
    "parent-format-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_the_parent_wrote_it),
    "format-5-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_format_5_wrote_it),
    "format-6-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_format_6_wrote_it),
    "format-7-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_format_7_wrote_it),
    "format-8-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_format_8_wrote_it),
    "format-9-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_format_9_wrote_it),
    "format-10-dump-set": lambda cas, ref, blob:
        _rewritten(cas, ref, blob, _as_format_10_wrote_it),
}


class TestDiskLayer:
    def test_write_through_and_fresh_store_reads_back(self, tmp_path):
        writer = ImageStore(root=tmp_path)
        writer.put(_key(), [_img(10.0), _img(20.0)])
        [ref] = (tmp_path / "refs").iterdir()
        assert ref.name == f"imgset-{_key().digest()}"
        assert (tmp_path / "blobs" / ref.read_text()).is_file()
        reader = ImageStore(root=tmp_path)
        images = reader.get(_key())
        assert [img.captured_at for img in images] == [10.0, 20.0]
        assert reader.has(_key())
        assert not reader.has(_key(seed=2))
        # One table read back for the whole set: both dumps resolve
        # their shared reference to the same decoded object.
        first, second = (img.context.loads(img.dump) for img in images)
        assert first["shared"] == SHARED
        assert first["shared"] is second["shared"] is not SHARED
        assert first["private"] is not second["private"]
        # The charge is the blob the writer stored, on both sides.
        blob = tmp_path / "blobs" / ref.read_text()
        assert (reader.stats()["bytes"] == writer.stats()["bytes"]
                == blob.stat().st_size)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_files_count_as_absent(self, tmp_path, damage):
        """Every way the files of a stored set can go bad is detected
        and reads as a miss — never an exception, never a wrong set."""
        writer = ImageStore(root=tmp_path)
        writer.put(_key(), [_img(10.0), _img(20.0)])
        writer.put(_key(seed=2), [_img(30.0)])
        ref = tmp_path / "refs" / f"imgset-{_key().digest()}"
        digest = ref.read_text()
        DAMAGE[damage](writer.cas, ref, tmp_path / "blobs" / digest)

        reader = ImageStore(root=tmp_path)
        assert reader.get(_key()) is None
        assert reader.stats()["misses"] == 1
        if damage.endswith("-blob"):  # BlobStore's own rows
            assert reader.cas.get(digest) is None
            assert reader.cas.misses >= 1
        # The neighbouring set is untouched.
        assert reader.get(_key(seed=2))[0].captured_at == 30.0

    def test_parent_format_dump_is_refused_by_its_header(self):
        """The table's tag and length alone would let a parent-format
        dump through to the unpickler, where its ``("r", index)`` id is
        a ``TypeError`` in the middle of a resume; the header's format
        marker turns it away first."""
        table = _table()
        dump = _parent_format_dump(table)
        assert not table.owns(dump)
        with pytest.raises(ValueError):
            table.loads(dump)
        # The same body under a format-2 header: what the marker averts.
        relabelled = table.dumps(None)[:_HEADER.size] + dump[12:]
        assert table.owns(relabelled)
        with pytest.raises(TypeError):
            table.loads(relabelled)

    def test_every_single_bit_flip_is_a_miss(self, tmp_path):
        """Exhaustive over the stored blob — key, table and dumps: no
        flipped bit reads back as a set, let alone a different one."""
        writer = ImageStore(root=tmp_path)
        writer.put(_key(), [_img(10.0, nbytes=8), _img(20.0, nbytes=8)])
        blob = tmp_path / "blobs" / writer.blob_of(_key().digest())
        reader = ImageStore(root=tmp_path)
        for bit in each_bit_flip(blob):
            assert reader.get(_key()) is None, f"bit {bit} went unnoticed"
        assert reader.stats()["misses"] == 8 * blob.stat().st_size
        assert [img.captured_at for img in reader.get(_key())] == [10.0, 20.0]

    def test_evicted_set_refetched_from_disk(self, tmp_path):
        # The memory cap never loses disk-backed sets: an evicted set
        # comes back through the disk layer on the next get.
        store = ImageStore(root=tmp_path,
                           max_bytes=int(1.5 * _charged([_img(10.0)])))
        store.put(_key(seed=1), [_img(10.0)])
        store.put(_key(seed=2), [_img(10.0)])  # evicts seed-1
        assert store.stats()["evictions"] == 1
        assert store.stats()["sets"] == 1
        images = store.get(_key(seed=1))
        assert images is not None and images[0].captured_at == 10.0
        assert store.stats()["hits"] == 1
        # The re-fetch re-entered the memory layer (and re-applied the
        # cap, evicting the now-least-recent seed-2 set).
        assert _key(seed=1).digest() in store._sets
        assert store.get(_key(seed=2)) is not None  # ...from disk again

    def test_clear_drops_memory_and_disk(self, tmp_path):
        store = ImageStore(root=tmp_path)
        store.put(_key(seed=1), [_img(10.0)])
        store.put(_key(seed=2), [_img(10.0)])
        assert store.clear() >= 2
        assert not list((tmp_path / "refs").iterdir())
        assert not list((tmp_path / "blobs").iterdir())
        assert ImageStore(root=tmp_path).get(_key(seed=1)) is None
