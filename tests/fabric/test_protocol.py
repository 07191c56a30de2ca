"""Fabric dialogue: frame helpers, blob chunking, FrameChannel."""

import socket
import threading

import pytest

from repro.fabric import protocol
from repro.cas import blob_digest
from repro.fabric.protocol import (
    BlobAssembler,
    FabricProtocolError,
    FrameChannel,
    blob_frames,
    expect,
    frame,
)


class TestFrameHelpers:
    def test_frame_builds_typed_body(self):
        assert frame("task", shard=3) == {"type": "task", "shard": 3}

    def test_expect_accepts_listed_types(self):
        body = frame("result", shard=1)
        assert expect(body, "result", "heartbeat") is body

    def test_expect_rejects_wrong_type(self):
        with pytest.raises(FabricProtocolError):
            expect(frame("task"), "result")

    def test_expect_rejects_non_frames(self):
        with pytest.raises(FabricProtocolError):
            expect(["not", "a", "frame"])
        with pytest.raises(FabricProtocolError):
            expect({"no_type": True})


class TestBlobTransfer:
    def _roundtrip(self, data: bytes) -> bytes:
        frames = list(blob_frames(blob_digest(data), data))
        assembler = BlobAssembler(frames[0])
        out = None
        for body in frames[1:]:
            out = assembler.feed(body)
        return out

    def test_small_blob_roundtrip(self):
        assert self._roundtrip(b"tiny") == b"tiny"

    def test_empty_blob_roundtrip(self):
        assert self._roundtrip(b"") == b""

    def test_multi_chunk_roundtrip(self, monkeypatch):
        monkeypatch.setattr(protocol, "BLOB_CHUNK_BYTES", 64)
        data = bytes(range(256)) * 3
        frames = list(blob_frames(blob_digest(data), data))
        assert len(frames) > 3  # header + several chunks + end
        assembler = BlobAssembler(frames[0])
        out = None
        for body in frames[1:]:
            out = assembler.feed(body)
        assert out == data

    def test_out_of_order_chunk_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "BLOB_CHUNK_BYTES", 8)
        data = b"0123456789abcdef"
        frames = list(blob_frames(blob_digest(data), data))
        assembler = BlobAssembler(frames[0])
        with pytest.raises(FabricProtocolError, match="out of order"):
            assembler.feed(frames[2])  # seq 1 before seq 0

    def test_truncated_transfer_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "BLOB_CHUNK_BYTES", 8)
        data = b"0123456789abcdef"
        frames = list(blob_frames(blob_digest(data), data))
        assembler = BlobAssembler(frames[0])
        assembler.feed(frames[1])
        with pytest.raises(FabricProtocolError, match="truncated"):
            assembler.feed(frames[-1])  # blob-end with a chunk missing

    def test_content_digest_mismatch_rejected(self):
        data = b"authentic bytes"
        frames = list(blob_frames(blob_digest(b"forged"), data))
        assembler = BlobAssembler(frames[0])
        assembler.feed(frames[1])
        with pytest.raises(FabricProtocolError, match="digest"):
            assembler.feed(frames[2])

    def test_interleaved_blob_rejected(self):
        a = list(blob_frames(blob_digest(b"aaa"), b"aaa"))
        b = list(blob_frames(blob_digest(b"bbb"), b"bbb"))
        assembler = BlobAssembler(a[0])
        with pytest.raises(FabricProtocolError, match="interleaved"):
            assembler.feed(b[1])

    def test_undecodable_base64_rejected(self):
        data = b"payload"
        frames = list(blob_frames(blob_digest(data), data))
        frames[1]["data"] = "!!! not base64 !!!"
        with pytest.raises(FabricProtocolError, match="undecodable"):
            BlobAssembler(frames[0]).feed(frames[1])


class TestFrameChannel:
    @pytest.fixture
    def pair(self):
        left, right = socket.socketpair()
        yield FrameChannel(left), FrameChannel(right)
        left.close()
        right.close()

    def test_send_recv_roundtrip(self, pair):
        left, right = pair
        left.send(frame("hello", worker="w0"))
        assert right.recv(timeout=2.0) == {"type": "hello", "worker": "w0"}

    def test_multiple_frames_buffer(self, pair):
        left, right = pair
        left.send(frame("a"))
        left.send(frame("b"))
        assert right.recv(timeout=2.0)["type"] == "a"
        assert right.recv(timeout=2.0)["type"] == "b"

    def test_timeout_returns_none(self, pair):
        _left, right = pair
        assert right.recv(timeout=0.05) is None

    def test_closed_peer_raises(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionError):
            right.recv(timeout=2.0)

    def test_recv_blob_over_socket(self, pair, monkeypatch):
        monkeypatch.setattr(protocol, "BLOB_CHUNK_BYTES", 128)
        left, right = pair
        data = bytes(range(256)) * 4
        digest = blob_digest(data)

        def serve():
            for body in blob_frames(digest, data):
                left.send(body)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            header = right.recv(timeout=2.0)
            assert right.recv_blob(header, timeout=2.0) == data
        finally:
            thread.join()
