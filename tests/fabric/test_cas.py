"""Content-addressed blob store: dedup, verification, refs."""

import pytest

from repro.cas import BlobStore, blob_digest


@pytest.fixture
def store(tmp_path):
    return BlobStore(tmp_path / "cas")


class TestBlobs:
    def test_put_get_roundtrip(self, store):
        digest = store.put(b"hello fabric")
        assert digest == blob_digest(b"hello fabric")
        assert store.get(digest) == b"hello fabric"
        assert store.hits == 1 and store.puts == 1

    def test_put_is_idempotent(self, store):
        first = store.put(b"payload")
        second = store.put(b"payload")
        assert first == second
        assert store.puts == 1 and store.dedup_puts == 1
        assert store.bytes_written == len(b"payload")

    def test_missing_blob_is_none(self, store):
        assert store.get(blob_digest(b"never stored")) is None
        assert store.misses == 1

    def test_corrupt_blob_counts_as_absent(self, store):
        digest = store.put(b"original bytes")
        (store.root / "blobs" / digest).write_bytes(b"bit-flipped")
        assert store.get(digest) is None
        assert store.misses == 1

    def test_put_heals_a_corrupt_blob(self, store):
        digest = store.put(b"original bytes")
        (store.root / "blobs" / digest).write_bytes(b"bit-flipped")
        assert store.put(b"original bytes") == digest
        assert store.get(digest) == b"original bytes"
        assert store.puts == 2 and store.dedup_puts == 0

    def test_has_does_not_verify_or_count(self, store):
        digest = store.put(b"x" * 100)
        assert store.has(digest)
        assert not store.has(blob_digest(b"other"))
        assert store.hits == 0 and store.misses == 0

    def test_digest_validation(self, store):
        with pytest.raises(ValueError):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError):
            store.get("abc")

    def test_digests_lists_sorted(self, store):
        digests = {store.put(bytes([n])) for n in range(5)}
        assert store.digests() == sorted(digests)

    def test_concurrent_writer_tmp_does_not_collide(self, store):
        # pid-suffixed temp names: a same-pid sequential double write is
        # the degenerate case; the property is simply that the final
        # rename always leaves verified content.
        digest = store.put(b"racing content")
        store.dedup_puts = 0
        (store.root / "blobs" / digest).unlink()
        assert store.put(b"racing content") == digest
        assert store.get(digest) == b"racing content"


class TestRefs:
    def test_ref_roundtrip(self, store):
        digest = store.put(b"image set")
        store.set_ref("imgset-abc123", digest)
        assert store.ref("imgset-abc123") == digest

    def test_missing_ref_is_none(self, store):
        assert store.ref("no-such-ref") is None

    def test_dangling_ref_is_none(self, store):
        store.set_ref("dangle", blob_digest(b"never stored"))
        assert store.ref("dangle") is None

    def test_ref_repoint(self, store):
        one = store.put(b"one")
        two = store.put(b"two")
        store.set_ref("latest", one)
        store.set_ref("latest", two)
        assert store.ref("latest") == two

    def test_ref_name_validation(self, store):
        digest = store.put(b"data")
        with pytest.raises(ValueError):
            store.set_ref("../escape", digest)
        with pytest.raises(ValueError):
            store.set_ref("a/b", digest)

    def test_stats_shape(self, store):
        store.put(b"z")
        stats = store.stats()
        assert stats["puts"] == 1 and stats["blobs"] == 1
        assert set(stats) == {"hits", "misses", "puts", "dedup_puts",
                              "bytes_written", "blobs"}
