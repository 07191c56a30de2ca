"""The snapshot codec — the byte-level encoding under every checkpoint.

:func:`encode` turns a section value (plain checkpointable data) into
bytes and :func:`decode` turns them back.  The contract the rest of the
pipeline relies on:

* **isolation** — ``decode(encode(x))`` is an independent deep copy of
  ``x`` (restoring a checkpoint must never alias live state; captures
  hand the codec references to the live state and this is all that
  freezes them);
* **purity** — encoding consumes no simulator randomness and has no
  side effect on the value, so capture cannot perturb the event
  sequence of a run (the determinism property the campaign machinery
  relies on);
* **round-trip equality** — the decoded value compares equal to the
  original (property-tested).

A payload is accounted at ``len()`` of its bytes.
"""

from __future__ import annotations

import pickle
from typing import Any


def encode(value: Any) -> bytes:
    """Freeze ``value`` into bytes (highest-protocol pickling)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode(data: bytes) -> Any:
    """An independent copy of the encoded value."""
    return pickle.loads(data)
