"""Shared message wire format: canonical JSON framing with per-message
integrity checksums.

Both backends describe a :class:`~repro.messages.message.Message` with
the same dictionary codec; the live backend additionally frames the
dictionaries for a byte stream:

``[4-byte big-endian length][canonical JSON envelope]``

where the envelope is ``{"v": version, "sum": sha256(body), "body": body}``
and the checksum covers the canonically serialized body (sorted keys,
minimal separators) — so encoding is *stable*: the same logical message
always produces the same bytes, and any corruption of the body is
detected before the payload reaches protocol code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from typing import Any, Dict, List, Optional

from ..app.component import Payload
from ..errors import NetworkError
from ..messages.message import Message
from ..types import MessageKind, ProcessId

#: Wire protocol version; receivers reject envelopes they cannot parse.
WIRE_VERSION = 1

#: Upper bound on a single frame (checkpoint-free control plane; a
#: larger length prefix means a corrupt or hostile stream).
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireIntegrityError(NetworkError):
    """A frame failed checksum, version, or structural verification."""


def canonical_bytes(obj: Any) -> bytes:
    """Canonical JSON serialization: key-sorted, minimal separators —
    the byte stability the checksum (and round-trip tests) rely on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def body_checksum(body: Any) -> str:
    """sha256 over the canonical serialization of ``body``."""
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


def encode_frame(body: Any) -> bytes:
    """Frame ``body`` (a JSON-able object) for a byte stream."""
    envelope = {"v": WIRE_VERSION, "sum": body_checksum(body), "body": body}
    data = canonical_bytes(envelope)
    if len(data) > MAX_FRAME_BYTES:
        raise WireIntegrityError(f"frame too large: {len(data)} bytes")
    return _LENGTH.pack(len(data)) + data


def decode_frame_payload(data: bytes) -> Any:
    """Verify and unwrap one frame's envelope (without length prefix)."""
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireIntegrityError(f"undecodable frame: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireIntegrityError(f"frame envelope is {type(envelope).__name__}, "
                                 "expected object")
    if envelope.get("v") != WIRE_VERSION:
        raise WireIntegrityError(f"unsupported wire version {envelope.get('v')!r}")
    if "sum" not in envelope or "body" not in envelope:
        raise WireIntegrityError("frame envelope missing 'sum'/'body'")
    body = envelope["body"]
    if body_checksum(body) != envelope["sum"]:
        raise WireIntegrityError("frame checksum mismatch")
    return body


class FrameReader:
    """Incremental frame decoder for a TCP byte stream.

    Feed it arbitrarily chopped chunks; it returns every completed
    frame's verified body.  Corruption raises
    :class:`WireIntegrityError` — callers drop the connection (the
    sender's retry path re-delivers).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> List[Any]:
        self._buffer.extend(chunk)
        bodies: List[Any] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return bodies
            (length,) = _LENGTH.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise WireIntegrityError(f"frame length {length} exceeds cap")
            if len(self._buffer) < _LENGTH.size + length:
                return bodies
            data = bytes(self._buffer[_LENGTH.size:_LENGTH.size + length])
            del self._buffer[:_LENGTH.size + length]
            bodies.append(decode_frame_payload(data))

    def pending_bytes(self) -> int:
        """Bytes buffered awaiting frame completion."""
        return len(self._buffer)


# ----------------------------------------------------------------------
# Message <-> dict codec
# ----------------------------------------------------------------------
def _encode_payload(payload: Any) -> Any:
    if payload is None:
        return None
    if isinstance(payload, Payload):
        return {"_payload": True, "value": payload.value,
                "corrupt": payload.corrupt}
    return payload


def _decode_payload(data: Any) -> Any:
    if isinstance(data, dict) and data.get("_payload"):
        return Payload(value=data["value"], corrupt=bool(data["corrupt"]))
    return data


def message_to_dict(message: Message) -> Dict[str, Any]:
    """Describe a :class:`Message` as a JSON-able dictionary.

    ``resend_of`` may be a dedup-key tuple; JSON turns tuples into
    lists, and :func:`message_from_dict` restores them.
    """
    resend_of = message.resend_of
    if isinstance(resend_of, tuple):
        resend_of = list(resend_of)
    return {
        "kind": message.kind.value,
        "sender": str(message.sender),
        "receiver": str(message.receiver),
        "payload": _encode_payload(message.payload),
        "sn": message.sn,
        "ndc": message.ndc,
        "dirty_bit": message.dirty_bit,
        "taint_map": message.taint_map,
        "dsn": message.dsn,
        "corrupt": message.corrupt,
        "resend_of": resend_of,
        "incarnation": message.incarnation,
        "msg_id": message.msg_id,
        "send_time": message.send_time,
        "born_at": message.born_at,
    }


_MESSAGE_FIELDS = {f.name for f in dataclasses.fields(Message)}


def message_from_dict(data: Dict[str, Any]) -> Message:
    """Rebuild a :class:`Message` from its wire dictionary."""
    unknown = set(data) - _MESSAGE_FIELDS
    if unknown:
        raise WireIntegrityError(f"unknown message fields: {sorted(unknown)}")
    try:
        kind = MessageKind(data["kind"])
        sender = ProcessId(data["sender"])
        receiver = ProcessId(data["receiver"])
    except (KeyError, ValueError) as exc:
        raise WireIntegrityError(f"malformed message dict: {exc}") from exc
    resend_of = data.get("resend_of")
    if isinstance(resend_of, list):
        resend_of = tuple(resend_of)
    return Message(
        kind=kind, sender=sender, receiver=receiver,
        payload=_decode_payload(data.get("payload")),
        sn=data.get("sn"), ndc=data.get("ndc"),
        dirty_bit=data.get("dirty_bit"),
        taint_map=(None if data.get("taint_map") is None
                   else {str(k): int(v)
                         for k, v in data["taint_map"].items()}),
        dsn=data.get("dsn"), corrupt=bool(data.get("corrupt", False)),
        resend_of=resend_of,
        incarnation=int(data.get("incarnation", 0)),
        msg_id=int(data["msg_id"]),
        send_time=float(data.get("send_time", 0.0)),
        born_at=float(data.get("born_at", 0.0)),
    )


def encode_message_frame(message: Message) -> bytes:
    """One-step message framing (codec + envelope + length prefix)."""
    return encode_frame(message_to_dict(message))


def verify_message_roundtrip(message: Message) -> bool:
    """Whether a message survives the wire codec unchanged (tuples in
    ``resend_of`` are restored; everything else must be JSON-stable)."""
    return message_from_dict(message_to_dict(message)) == message


def checksum_of(message: Message) -> str:
    """The integrity checksum a frame carrying ``message`` would bear."""
    return body_checksum(message_to_dict(message))
