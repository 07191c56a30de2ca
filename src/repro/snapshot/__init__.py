"""The snapshot pipeline.

Every checkpoint in the system — MDCD Type-1/Type-2/pseudo volatile
checkpoints and TB stable establishments alike — funnels state capture
through this package:

* :mod:`~repro.snapshot.codec` — the one byte-level encoding
  (``encode`` / ``decode``) and the isolation contract it gives every
  capture;
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

Incremental capture is a pure representation concern: it never touches
the simulator's RNG streams or event ordering, so the campaign sample
sequence is bit-for-bit independent of it (asserted
by ``tests/integration/test_representation_knobs.py`` and the snapshot
test suite).
"""

from .sections import (
    SECTION_ORDER,
    ChainReader,
    SectionPayload,
    SnapshotEncoder,
    SnapshotPayload,
    declared_section,
    decode_payload,
    encode_full,
)

__all__ = [
    "SECTION_ORDER",
    "SectionPayload",
    "SnapshotPayload",
    "SnapshotEncoder",
    "ChainReader",
    "declared_section",
    "decode_payload",
    "encode_full",
]
