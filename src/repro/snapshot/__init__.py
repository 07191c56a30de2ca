"""The pluggable snapshot pipeline.

Every checkpoint in the system — MDCD Type-1/Type-2/pseudo volatile
checkpoints and TB stable establishments alike — funnels state capture
through this package instead of a hard-wired ``pickle.dumps``:

* :mod:`~repro.snapshot.codec` — byte-level encoding strategies
  (:class:`PickleCodec`, :class:`CompressedPickleCodec`,
  :class:`NullCodec`) behind a registry, selected per checkpoint store
  and threaded through the system configurations;
* :mod:`~repro.snapshot.sections` — a process snapshot is split into
  independently-encoded *sections* (``app``, ``mdcd``, ``journals``,
  ``msg_log``, ``counters``) with per-section byte accounting, so cost
  studies can report *where* checkpoint bytes go;
* :mod:`~repro.snapshot.delta` — the journal and message-log sections
  of steady-state captures encode as *deltas* against the previous
  capture of the same process, cutting volatile-checkpoint cost from
  O(journal) to O(new entries); a delta chain is replayed back to the
  nearest full section once per payload (rollbacks take private
  containers over the resolved value), while a read-only consumer that
  follows one process's captures (the online auditor) advances a
  :class:`ChainReader` cursor and decodes each delta once.

Codec choice and incremental capture are pure representation concerns:
they never touch the simulator's RNG streams or event ordering, so the
campaign sample sequence is bit-for-bit independent of them (asserted
by ``tests/integration/test_representation_knobs.py`` and the snapshot
test suite).
"""

from .codec import (
    Codec,
    CompressedPickleCodec,
    NullCodec,
    PickleCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from .sections import (
    SECTION_ORDER,
    ChainReader,
    SectionPayload,
    SnapshotEncoder,
    SnapshotPayload,
    declared_section,
    decode_payload,
    encode_full,
    encode_value,
)

__all__ = [
    "Codec",
    "PickleCodec",
    "CompressedPickleCodec",
    "NullCodec",
    "available_codecs",
    "get_codec",
    "register_codec",
    "SECTION_ORDER",
    "SectionPayload",
    "SnapshotPayload",
    "SnapshotEncoder",
    "ChainReader",
    "declared_section",
    "decode_payload",
    "encode_full",
    "encode_value",
]
