"""On-disk result cache for experiment campaigns.

A campaign cell — one replication of one labelled configuration — is
pure: its samples are a deterministic function of ``(label, master
seed, replication index, configuration)``.  The cache stores each
cell's samples keyed by a digest of exactly those coordinates, so
re-running a sweep after an interruption (or re-running with one
parameter changed) only computes the missing cells.

:class:`ResultCache` is a typed view over a content-addressed
:class:`~repro.cas.BlobStore`, as the warm-start ``ImageStore`` is:
``refs/cell-<key digest>`` names the ``blobs/<sha256>`` holding the
cell's canonical JSON record.  A cell read back is trusted only if its
bytes hash to the blob's name and are exactly the record ``put`` writes
for the key asked for; anything else — torn, flipped, misfiled, foreign
— is a miss, and the cell is recomputed.

Invalidation is by construction: the configuration fingerprint feeds
the digest, so any change to the swept parameters — or to the package
version, which :func:`campaign_fingerprint` folds in — lands under a
fresh ref and stale entries are simply never read again.  ``clear()``
(or deleting the directory) reclaims the space.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, List, Optional

from ..cas import BlobStore


def stable_dumps(obj: Any) -> bytes:
    """One shared ``dumps``: highest-protocol pickling of ``obj``.

    Used both for fingerprint digests (over :func:`_canonical` views,
    whose sorted plain containers pickle deterministically) and by
    :func:`repro.parallel.pool._picklable` to probe whether a task can
    cross a process boundary.
    """
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _canonical(obj: Any) -> Any:
    """A JSON-stable view of ``obj`` for fingerprinting.

    Dataclasses become sorted field dicts, enums their values, mappings
    and sequences recurse; anything else falls back to ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def config_fingerprint(config: Any) -> str:
    """Stable hex digest of an arbitrary configuration object."""
    return hashlib.sha256(stable_dumps(_canonical(config))).hexdigest()[:16]


def campaign_fingerprint(config: Any) -> str:
    """Fingerprint of ``config`` plus the package version, so cached
    samples never survive a code upgrade silently."""
    from .. import __version__
    return config_fingerprint({"version": __version__,
                               "config": _canonical(config)})


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """Coordinates of one campaign cell."""

    label: str
    master_seed: int
    replication: int
    fingerprint: str = ""

    def digest(self) -> str:
        """Filename-safe digest of the full key."""
        payload = json.dumps([self.label, self.master_seed,
                              self.replication, self.fingerprint],
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-campaigns``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-campaigns"


#: Ref-name prefix of a cell: ``refs/cell-<CacheKey.digest()>``.
_CELL = "cell-"


def _record(key: CacheKey, samples: List[float]) -> bytes:
    """The canonical blob of one cell: what :meth:`ResultCache.put`
    stores and the only bytes :meth:`ResultCache.get` accepts."""
    return json.dumps({"label": key.label,
                       "master_seed": key.master_seed,
                       "replication": key.replication,
                       "fingerprint": key.fingerprint,
                       "samples": samples},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


class ResultCache:
    """Campaign results, one ref and one verified blob per cell."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.cas = BlobStore(root if root is not None
                             else default_cache_dir())
        self.root = self.cas.root
        self.hits = 0
        self.misses = 0

    def _load(self, key: CacheKey) -> Optional[List[float]]:
        """``key``'s samples from disk, verified — or ``None``."""
        blob = self.cas.ref(_CELL + key.digest())
        data = self.cas.get(blob) if blob is not None else None
        if data is None:
            return None
        try:
            record = json.loads(data)
        except (ValueError, RecursionError):
            return None  # hashes to its name, but is not a record
        samples = record.get("samples") if isinstance(record, dict) else None
        # Re-encoding under the requested key must reproduce the bytes:
        # one comparison checks the stored coordinates and the record's
        # shape, so another cell's blob under this ref is not this cell.
        if (isinstance(samples, list)
                and all(type(v) is float for v in samples)
                and _record(key, samples) == data):
            return samples
        return None

    def get(self, key: CacheKey) -> Optional[List[float]]:
        """Samples for ``key``, or ``None`` on a miss (unreadable,
        corrupt or misfiled entries count as absent)."""
        samples = self._load(key)
        if samples is None:
            self.misses += 1
        else:
            self.hits += 1
        return samples

    def put(self, key: CacheKey, samples: List[float]) -> None:
        """Store ``samples`` for ``key`` (blob first, then the ref;
        both atomic-rename writes through per-process temp files, so
        writers sharing the directory never move each other's)."""
        blob = self.cas.put(_record(key, [float(v) for v in samples]))
        self.cas.set_ref(_CELL + key.digest(), blob)

    def _cells(self) -> List[str]:
        return [name for name in self.cas.ref_names()
                if name.startswith(_CELL)]

    def __len__(self) -> int:
        return len(self._cells())

    def clear(self) -> int:
        """Delete every cached cell; returns how many were removed."""
        return sum(self.cas.drop_ref(name) for name in self._cells())
