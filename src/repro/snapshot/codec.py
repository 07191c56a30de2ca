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

:func:`record` builds the pipeline's own frozen records (section
payloads, journal deltas, checkpoints): tens of thousands a campaign.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Type, TypeVar

R = TypeVar("R")

_new = object.__new__
_setattr = object.__setattr__


def encode(value: Any) -> bytes:
    """Freeze ``value`` into bytes (highest-protocol pickling)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode(data: bytes) -> Any:
    """An independent copy of the encoded value."""
    return pickle.loads(data)


def record(cls: Type[R], fields: Dict[str, Any]) -> R:
    """The dataclass ``cls`` over ``fields`` (every field, in field
    order): what ``cls(**fields)`` builds — the same class and
    ``__dict__``, so the same ``==`` and pickle — without running
    ``__init__`` (a frozen one stores each field through
    ``object.__setattr__``).  ``fields`` becomes the instance's
    ``__dict__``; the caller hands over a dict nothing else holds."""
    obj = _new(cls)
    _setattr(obj, "__dict__", fields)
    return obj
