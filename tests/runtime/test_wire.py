"""Wire format: framing, checksums, corruption detection, codec
round-trip stability."""

import json

import pytest

from repro.app.component import Payload
from repro.messages.message import Message, MsgIdAllocator
from repro.runtime.wire import (MAX_FRAME_BYTES, WIRE_VERSION, FrameReader,
                                WireIntegrityError, body_checksum,
                                canonical_bytes, decode_frame_payload,
                                encode_frame, message_from_dict,
                                message_to_dict)
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def _roundtrip(message):
    return message_from_dict(message_to_dict(message))


def _checksum(message):
    return body_checksum(message_to_dict(message))


def _message(**overrides):
    fields = dict(kind=MessageKind.INTERNAL, sender=ProcessId("P1_act"),
                  receiver=ProcessId("P2"),
                  payload=Payload(value=17, corrupt=False),
                  sn=3, ndc=1, dirty_bit=0, dsn=5, incarnation=2,
                  msg_id=IDS.allocate())
    fields.update(overrides)
    return Message(**fields)


class TestFraming:
    def test_roundtrip(self):
        body = {"t": "msg", "x": [1, 2, {"y": None}]}
        frame = encode_frame(body)
        assert decode_frame_payload(frame[4:]) == body

    def test_encoding_is_stable(self):
        # Same logical body, different construction order -> same bytes.
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b

    def test_canonical_bytes_sorted_minimal(self):
        assert canonical_bytes({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'

    def test_corrupt_body_detected(self):
        frame = bytearray(encode_frame({"t": "msg", "value": 1234}))
        # Flip one byte inside the JSON body (past the length prefix and
        # the envelope head, before the final brace).
        frame[-10] ^= 0x01
        with pytest.raises(WireIntegrityError):
            decode_frame_payload(bytes(frame[4:]))

    def test_tampered_body_field_detected(self):
        frame = encode_frame({"value": 1234})
        envelope = json.loads(frame[4:].decode("utf-8"))
        envelope["body"]["value"] = 9999
        with pytest.raises(WireIntegrityError, match="checksum"):
            decode_frame_payload(canonical_bytes(envelope))

    def test_wrong_version_rejected(self):
        envelope = {"v": WIRE_VERSION + 1, "sum": body_checksum({}), "body": {}}
        with pytest.raises(WireIntegrityError, match="version"):
            decode_frame_payload(canonical_bytes(envelope))

    def test_non_json_rejected(self):
        with pytest.raises(WireIntegrityError):
            decode_frame_payload(b"\xff\xfe not json")

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireIntegrityError, match="large"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestFrameReader:
    def test_reassembles_chopped_stream(self):
        bodies = [{"n": i} for i in range(5)]
        stream = b"".join(encode_frame(b) for b in bodies)
        reader = FrameReader()
        out = []
        for i in range(0, len(stream), 3):  # 3-byte chunks
            out.extend(reader.feed(stream[i:i + 3]))
        assert out == bodies
        # Nothing was left buffered: the next frame reads back alone.
        assert reader.feed(encode_frame({"n": 5})) == [{"n": 5}]

    def test_multiple_frames_in_one_chunk(self):
        stream = encode_frame({"a": 1}) + encode_frame({"b": 2})
        assert FrameReader().feed(stream) == [{"a": 1}, {"b": 2}]

    def test_length_bomb_rejected(self):
        reader = FrameReader()
        with pytest.raises(WireIntegrityError, match="exceeds"):
            reader.feed(b"\xff\xff\xff\xff")

    def test_mid_stream_corruption_raises(self):
        frame = bytearray(encode_frame({"k": "value"}))
        frame[-5] ^= 0x01
        with pytest.raises(WireIntegrityError):
            FrameReader().feed(bytes(frame))


class TestMessageCodec:
    def test_roundtrip_plain(self):
        message = _message()
        assert _roundtrip(message) == message

    def test_roundtrip_all_field_shapes(self):
        for message in (
                _message(kind=MessageKind.EXTERNAL, payload=None, sn=None),
                _message(kind=MessageKind.ACK, corrupt=True),
                _message(kind=MessageKind.PASSED_AT, taint_map={"C1_act": 9}),
                _message(resend_of=("P1_act", "P2", 7)),  # dedup-key tuple
                _message(resend_of=41),
                _message(payload=Payload(value="text", corrupt=True)),
        ):
            assert _roundtrip(message) == message, message.describe()

    def test_dedup_key_survives_wire(self):
        message = _message(resend_of=("P1_act", "P2", 7))
        decoded = message_from_dict(message_to_dict(message))
        assert decoded.dedup_key == message.dedup_key

    def test_unknown_fields_rejected(self):
        data = message_to_dict(_message())
        data["surprise"] = 1
        with pytest.raises(WireIntegrityError, match="unknown"):
            message_from_dict(data)

    def test_malformed_kind_rejected(self):
        data = message_to_dict(_message())
        data["kind"] = "no-such-kind"
        with pytest.raises(WireIntegrityError):
            message_from_dict(data)

    def test_checksum_identifies_content_change(self):
        a = _message(sn=1, msg_id=100)
        b = _message(sn=2, msg_id=100)
        assert _checksum(a) != _checksum(b)
        assert _checksum(a) == _checksum(_message(sn=1, msg_id=100))

    def test_message_frame_roundtrip(self):
        message = _message()
        body = decode_frame_payload(encode_frame(message_to_dict(message))[4:])
        assert message_from_dict(body) == message
