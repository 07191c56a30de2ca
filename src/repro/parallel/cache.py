"""On-disk result cache for experiment campaigns.

A campaign cell — one replication of one labelled configuration — is
pure: its samples are a deterministic function of ``(label, master
seed, replication index, configuration)``.  The cache stores each
cell's samples as one small JSON file keyed by a digest of exactly
those coordinates, so re-running a sweep after an interruption (or
re-running with one parameter changed) only computes the missing cells.

Invalidation is by construction: the configuration fingerprint feeds
the digest, so any change to the swept parameters — or to the package
version, which :func:`campaign_fingerprint` folds in — lands in a fresh
file and stale entries are simply never read again.  ``clear()`` (or
deleting the directory) reclaims the space.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..cas import atomic_write


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


class ResultCache:
    """Directory of one-JSON-file-per-cell campaign results."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: CacheKey) -> Path:
        return self.root / f"{key.digest()}.json"

    def get(self, key: CacheKey) -> Optional[List[float]]:
        """Samples for ``key``, or ``None`` on a miss (including any
        unreadable/corrupt file, which is treated as absent)."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            samples = [float(v) for v in data["samples"]]
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return samples

    def put(self, key: CacheKey, samples: List[float]) -> None:
        """Store ``samples`` for ``key`` (atomic rename write through a
        per-process temp file: writers sharing the directory never move
        each other's)."""
        record: Dict[str, Any] = {
            "label": key.label,
            "master_seed": key.master_seed,
            "replication": key.replication,
            "fingerprint": key.fingerprint,
            "samples": list(samples),
        }
        atomic_write(self._path(key), json.dumps(record).encode("utf-8"))

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached cell; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
