"""Supervisor <-> worker dialogue over the shared wire format.

The fabric speaks :mod:`repro.runtime.wire` length-prefixed
canonical-JSON frames with sha256 body checksums — the same bytes-level
contract the live protocol backend uses, so one framing/fuzz test suite
covers both.  Every fabric frame body is ``{"type": <str>, ...}``:

worker -> supervisor
    ``hello``      register: worker name, host, pid, protocol version
    ``request``    ask for a shard (sent when idle)
    ``heartbeat``  liveness beacon; carries the shard being executed
    ``result``     one completed shard's result dicts + worker counters
    ``blob-get``   fetch a blob by digest

supervisor -> worker
    ``welcome``    campaign id, config dict, execution mode, timing knobs
    ``task``       one shard: schedule dicts, attempt, needed blob refs
    ``idle``       nothing to hand out right now; re-request after delay
    ``done``       campaign complete — drop the connection
    ``blob``       header for a requested blob, then ``blob-chunk`` *n*,
                   then ``blob-end`` (digest re-verified by the receiver)
    ``error``      protocol violation; the connection is dropped

Blobs ride inside ordinary frames as base64 chunks sized so that every
chunk stays well under :data:`repro.runtime.wire.MAX_FRAME_BYTES` —
image sets can exceed one frame's cap, and the chunking keeps a slow
blob transfer from starving heartbeats on the same connection.
"""

from __future__ import annotations

import base64
import socket
from typing import Any, Dict, Iterator, List, Optional

from ..runtime.wire import FrameReader, WireIntegrityError, encode_frame
from ..cas import blob_digest

#: Fabric dialogue version; bumped when frame semantics change.
FABRIC_VERSION = 1

#: Raw bytes per ``blob-chunk`` frame (base64 expands by 4/3; 1 MiB of
#: payload frames at ~1.37 MiB, comfortably under the 4 MiB wire cap).
BLOB_CHUNK_BYTES = 1024 * 1024


class FabricProtocolError(WireIntegrityError):
    """A structurally valid frame that violates the fabric dialogue."""


def frame(type_: str, **fields: Any) -> Dict[str, Any]:
    """A fabric frame body."""
    body = {"type": type_}
    body.update(fields)
    return body


def expect(body: Any, *types: str) -> Dict[str, Any]:
    """Validate that ``body`` is a fabric frame of one of ``types``."""
    if not isinstance(body, dict) or not isinstance(body.get("type"), str):
        raise FabricProtocolError(f"not a fabric frame: {body!r}")
    if types and body["type"] not in types:
        raise FabricProtocolError(
            f"expected {'/'.join(types)}, got {body['type']!r}")
    return body


def blob_frames(digest: str, data: bytes) -> Iterator[Dict[str, Any]]:
    """The frame sequence carrying one blob (header, chunks, trailer)."""
    yield frame("blob", digest=digest, size=len(data),
                chunks=(len(data) + BLOB_CHUNK_BYTES - 1) // BLOB_CHUNK_BYTES)
    for seq, at in enumerate(range(0, len(data), BLOB_CHUNK_BYTES)):
        chunk = data[at:at + BLOB_CHUNK_BYTES]
        yield frame("blob-chunk", digest=digest, seq=seq,
                    data=base64.b64encode(chunk).decode("ascii"))
    yield frame("blob-end", digest=digest)


class BlobAssembler:
    """Reassemble one blob from its frame sequence, verifying order,
    size, and — content addressing's gift — the digest itself."""

    def __init__(self, header: Dict[str, Any]) -> None:
        body = expect(header, "blob")
        self.digest = str(body["digest"])
        self.size = int(body["size"])
        self.expected_chunks = int(body["chunks"])
        self._parts: List[bytes] = []

    def feed(self, body: Dict[str, Any]) -> Optional[bytes]:
        """Consume one ``blob-chunk``/``blob-end`` frame; returns the
        verified bytes when complete, ``None`` while in flight."""
        body = expect(body, "blob-chunk", "blob-end")
        if body.get("digest") != self.digest:
            raise FabricProtocolError("interleaved blob transfer")
        if body["type"] == "blob-chunk":
            if int(body["seq"]) != len(self._parts):
                raise FabricProtocolError(
                    f"blob chunk out of order: got {body['seq']}, "
                    f"expected {len(self._parts)}")
            try:
                self._parts.append(base64.b64decode(body["data"],
                                                    validate=True))
            except (ValueError, TypeError) as exc:
                raise FabricProtocolError(f"undecodable blob chunk: {exc}")
            return None
        if len(self._parts) != self.expected_chunks:
            raise FabricProtocolError(
                f"blob truncated: {len(self._parts)}/{self.expected_chunks} "
                "chunks")
        data = b"".join(self._parts)
        if len(data) != self.size or blob_digest(data) != self.digest:
            raise FabricProtocolError("blob content does not match digest")
        return data


class FrameChannel:
    """A blocking request/response view of one framed TCP connection.

    The worker side of the dialogue is sequential (ask, wait, act), so
    a thin blocking wrapper is the right shape there; the supervisor
    multiplexes many connections and drives :class:`FrameReader`
    directly off a selector instead.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = FrameReader()
        self._ready: List[Any] = []

    def send(self, body: Dict[str, Any]) -> None:
        self.sock.sendall(encode_frame(body))

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next frame body; ``None`` on timeout.  A closed peer
        raises :class:`ConnectionError`."""
        if self._ready:
            return self._ready.pop(0)
        self.sock.settimeout(timeout)
        while True:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                return None
            if not chunk:
                raise ConnectionError("peer closed the connection")
            bodies = self.reader.feed(chunk)
            if bodies:
                self._ready.extend(bodies[1:])
                return bodies[0]

    def recv_blob(self, header: Dict[str, Any],
                  timeout: Optional[float] = None) -> bytes:
        """Complete a blob transfer whose ``blob`` header was already
        received; returns the verified bytes."""
        assembler = BlobAssembler(header)
        while True:
            body = self.recv(timeout)
            if body is None:
                raise FabricProtocolError("blob transfer stalled")
            data = assembler.feed(body)
            if data is not None:
                return data

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
