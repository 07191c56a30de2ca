"""Property fuzz of the frame layer: the fabric and the live protocol
both stand on :class:`FrameReader`, so it must hold up under arbitrary
chunking, truncation, oversize claims, and bit-level corruption.

Invariants under test:

* **reassembly** — any concatenation of valid frames, split at any byte
  boundaries, decodes to exactly the original bodies in order;
* **rejection** — a corrupted byte inside a frame either raises
  :class:`WireIntegrityError` or (if it only grazed JSON whitespace —
  impossible under canonical encoding) never silently yields a
  *different* body;
* **bounded buffering** — truncated input never raises and never
  yields a body; an oversize length prefix raises before buffering the
  claimed payload.
"""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runtime.wire import (  # noqa: E402
    MAX_FRAME_BYTES,
    FrameReader,
    WireIntegrityError,
    encode_frame,
)

# JSON-able bodies: scalars, and shallow containers of scalars.
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**31, 2**31),
    st.text(max_size=40))
_bodies = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=6),
    st.dictionaries(st.text(max_size=10), _scalars, max_size=6))


def _split_points(data: bytes, cuts):
    """Split ``data`` at the (sorted, deduped) cut offsets."""
    offsets = sorted({min(c, len(data)) for c in cuts})
    chunks, prev = [], 0
    for offset in offsets:
        chunks.append(data[prev:offset])
        prev = offset
    chunks.append(data[prev:])
    return chunks


class TestReassembly:
    @given(bodies=st.lists(_bodies, min_size=1, max_size=5),
           cuts=st.lists(st.integers(0, 4096), max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_any_chunking_reassembles_in_order(self, bodies, cuts):
        stream = b"".join(encode_frame(b) for b in bodies)
        reader = FrameReader()
        out = []
        for chunk in _split_points(stream, cuts):
            out.extend(reader.feed(chunk))
        assert out == bodies
        # Nothing was left buffered: the next frame reads back alone.
        assert reader.feed(encode_frame(bodies[0])) == [bodies[0]]

    @given(body=_bodies)
    @settings(max_examples=60, deadline=None)
    def test_byte_at_a_time_is_identical(self, body):
        stream = encode_frame(body)
        reader = FrameReader()
        out = []
        for i in range(len(stream)):
            out.extend(reader.feed(stream[i:i + 1]))
        assert out == [body]


class TestTruncation:
    @given(body=_bodies, keep=st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_truncated_frame_never_yields_and_never_raises(self, body, keep):
        stream = encode_frame(body)
        truncated = stream[:min(keep, len(stream) - 1)]
        reader = FrameReader()
        assert reader.feed(truncated) == []
        # Every byte was kept: the rest of the stream completes it.
        assert reader.feed(stream[len(truncated):]) == [body]

    @given(body=_bodies)
    @settings(max_examples=40, deadline=None)
    def test_completion_after_truncation_recovers(self, body):
        stream = encode_frame(body)
        half = len(stream) // 2
        reader = FrameReader()
        assert reader.feed(stream[:half]) == []
        assert reader.feed(stream[half:]) == [body]


class TestOversize:
    @given(length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oversize_length_prefix_rejected_immediately(self, length):
        reader = FrameReader()
        with pytest.raises(WireIntegrityError, match="exceeds cap"):
            reader.feed(struct.pack(">I", length))

    def test_cap_boundary_is_exact(self):
        reader = FrameReader()
        # Exactly at the cap: accepted (waits for payload bytes).
        assert reader.feed(struct.pack(">I", MAX_FRAME_BYTES)) == []
        with pytest.raises(WireIntegrityError):
            FrameReader().feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


class TestCorruption:
    @given(body=_bodies, position=st.integers(0, 4095),
           flip=st.integers(1, 255))
    @settings(max_examples=150, deadline=None)
    def test_corrupt_byte_never_silently_alters_a_body(self, body, position,
                                                       flip):
        stream = bytearray(encode_frame(body))
        position %= len(stream)
        stream[position] ^= flip
        reader = FrameReader()
        try:
            out = reader.feed(bytes(stream))
        except WireIntegrityError:
            return  # rejection is the expected outcome
        # Corruption limited to the length prefix can leave the reader
        # waiting for more bytes (shorter/longer claimed frame) — but a
        # *decoded* body must never differ from the original.
        for decoded in out:
            assert decoded == body

    @given(body=st.dictionaries(st.text(min_size=1, max_size=8), _scalars,
                                min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_checksum_guards_the_body(self, body):
        import json

        from repro.runtime.wire import WIRE_VERSION, body_checksum
        envelope = {"v": WIRE_VERSION, "sum": body_checksum(body),
                    "body": body}
        # Tamper with the body but keep the stale checksum.
        tampered = dict(envelope, body={"tampered": True})
        data = json.dumps(tampered, sort_keys=True,
                          separators=(",", ":")).encode()
        frame = struct.pack(">I", len(data)) + data
        with pytest.raises(WireIntegrityError, match="checksum"):
            FrameReader().feed(frame)
