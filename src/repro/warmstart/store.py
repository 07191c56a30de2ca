"""Image stores: keyed, bounded caches of prefix image sets.

A *prefix* is one fault-free reference execution — identified by
``(campaign-config fingerprint, system seed, timing overrides)`` — and
its *image set* is the ascending-by-time list of
:class:`~repro.warmstart.image.SystemImage` captures taken along it:
one shared-object table and one table-relative dump per capture.
The store keeps whole sets as the unit of caching (they are built in
one reference run, share their table, and are consumed together), with:

* an in-memory layer with LRU eviction bounded by total set bytes
  (table and dumps), so long campaigns cannot grow without limit;
* an optional on-disk layer, a typed view over a content-addressed
  :class:`~repro.cas.BlobStore` (``refs/imgset-<prefix>`` names the
  ``blobs/<sha256>`` holding the pickled ``{key, table, dumps}``),
  which is how image sets built in the coordinator reach pool workers
  and fabric hosts.  A set read back is trusted only if its bytes hash
  to the blob's name, they unpickle, the key stored inside is the key
  asked for and every dump names the table beside it; anything else is
  a miss.  Reading the blob decodes the table — once per set per
  process — and a dump only when resumed from.

Lookups are by :meth:`ImageStore.latest_before`: the newest image
captured *strictly before* a divergence time, the only resume point the
determinism contract permits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

try:  # advisory locking is POSIX-only; degrade to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..cas import BlobStore
from .image import SystemImage

#: Default in-memory budget for cached image sets (pickled-set bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclasses.dataclass(frozen=True)
class PrefixKey:
    """Coordinates of one reference prefix."""

    config_fingerprint: str
    system_seed: int
    overrides: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def for_schedule(cls, config, schedule) -> "PrefixKey":
        """The prefix a schedule's warm resume must come from."""
        return cls(config_fingerprint=config.fingerprint(),
                   system_seed=schedule.system_seed,
                   overrides=tuple(sorted(schedule.overrides)))

    def digest(self) -> str:
        """Filename-safe digest of the full key."""
        payload = json.dumps(
            [self.config_fingerprint, self.system_seed,
             [[k, v] for k, v in self.overrides]],
            separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class ImageStore:
    """Bounded cache of prefix image sets, optionally disk-backed.

    ``root=None`` keeps everything in memory (the serial-campaign
    mode); with a directory — or the :class:`~repro.cas.BlobStore` a
    fabric host already holds open on it — every ``put`` writes through
    to disk and ``get`` falls back to disk on a memory miss (the
    multi-process mode — workers open the same root read-only).
    """

    def __init__(self, root: Union[os.PathLike, BlobStore, None] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.cas: Optional[BlobStore] = (
            root if root is None or isinstance(root, BlobStore)
            else BlobStore(root))
        self.max_bytes = max_bytes
        self._sets: "OrderedDict[str, List[SystemImage]]" = OrderedDict()
        self._bytes: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def root(self) -> Optional[Path]:
        """The on-disk layer's directory (``None``: memory only)."""
        return self.cas.root if self.cas is not None else None

    @staticmethod
    def _ref(prefix: str) -> str:
        return f"imgset-{prefix}"

    def blob_of(self, prefix: str) -> Optional[str]:
        """Digest of the blob holding prefix digest ``prefix``'s set on
        disk, if there is one (what the fabric announces to workers)."""
        if self.cas is None:
            return None
        return self.cas.ref(self._ref(prefix))

    def adopt(self, prefix: str, digest: str) -> None:
        """Name a blob already in the CAS as ``prefix``'s image set (a
        fabric worker, after fetching what the supervisor announced)."""
        self.cas.set_ref(self._ref(prefix), digest)

    def _admit(self, digest: str, images: List[SystemImage],
               nbytes: int) -> None:
        """Enter a set into the memory layer, charged ``nbytes`` — the
        length of its pickled form, table included."""
        self._sets[digest] = images
        self._sets.move_to_end(digest)
        self._bytes[digest] = nbytes
        while (len(self._sets) > 1
               and sum(self._bytes.values()) > self.max_bytes):
            victim, _ = self._sets.popitem(last=False)
            del self._bytes[victim]
            self.evictions += 1

    # ------------------------------------------------------------------
    def put(self, key: PrefixKey, images: List[SystemImage]) -> None:
        """Cache ``images`` (sorted by capture time) under ``key``."""
        images = sorted(images, key=lambda img: img.captured_at)
        if any(img.context is not images[0].context for img in images):
            raise ValueError("the images of one set share one table")
        blob = pickle.dumps(
            {"key": dataclasses.asdict(key),
             "table": images[0].context if images else None,
             "dumps": [(img.captured_at, img.dump) for img in images]},
            protocol=pickle.HIGHEST_PROTOCOL)
        digest = key.digest()
        self._admit(digest, images, len(blob))
        if self.cas is not None:
            self.adopt(digest, self.cas.put(blob))

    def _load(self, key: PrefixKey
              ) -> Optional[Tuple[List[SystemImage], int]]:
        """``key``'s set from disk, verified, and its blob's length —
        or ``None``."""
        blob = self.blob_of(key.digest())
        data = self.cas.get(blob) if blob is not None else None
        if data is None:
            return None
        try:
            record = pickle.loads(data)
            if record["key"] != dataclasses.asdict(key):
                return None  # another prefix's set under this ref
            table = record["table"]
            images = [SystemImage(float(at), dump, table)
                      for at, dump in record["dumps"]]
            times = [img.captured_at for img in images]
            if times != sorted(times) or not all(
                    table.owns(img.dump) for img in images):
                return None  # resuming would mis-decode or mis-order
            return images, len(data)
        except Exception:
            # The bytes hash to their name, so they are what some writer
            # stored — but not necessarily this program: unpickling
            # foreign bytes can raise nearly anything.
            return None

    def get(self, key: PrefixKey) -> Optional[List[SystemImage]]:
        """The image set for ``key``, or ``None`` (unreadable, corrupt
        or misfiled disk entries count as absent)."""
        digest = key.digest()
        images = self._sets.get(digest)
        if images is not None:
            self._sets.move_to_end(digest)
            self.hits += 1
            return images
        if self.cas is not None:
            loaded = self._load(key)
            if loaded is not None:
                self._admit(digest, *loaded)
                self.hits += 1
                return loaded[0]
        self.misses += 1
        return None

    def has(self, key: PrefixKey) -> bool:
        """Whether a set exists (without counting a hit/miss, and
        without reading it — ``get`` verifies)."""
        digest = key.digest()
        return digest in self._sets or self.blob_of(digest) is not None

    @contextlib.contextmanager
    def build_lock(self, key: PrefixKey):
        """Advisory exclusive lock for building ``key``'s image set.

        Co-located fabric workers (and the parallel warm coordinator's
        check-then-build) share one on-disk store; without mutual
        exclusion two processes that both miss can build the same
        reference prefix twice — wasted work — or interleave writes.
        The lock is per-prefix (``imgset-<digest>.lock`` in the store
        root), blocking, and released on exit even if the build raises.  A
        memory-only store, or a platform without :mod:`fcntl`, degrades
        to lock-free behavior: correctness never depended on the lock
        (writes stay atomic-rename), only build economy does.
        """
        if self.root is None or fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / f"{self._ref(key.digest())}.lock"
        with open(lock_path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def latest_before(self, key: PrefixKey, t: float
                      ) -> Optional[SystemImage]:
        """Newest image captured strictly before ``t``, or ``None``.

        Strictness is the determinism contract: an image captured *at*
        a fault time may already include events the armed fault must
        interleave with.
        """
        # Newest first: campaigns resume late, and a set is <= 48 long.
        return next((img for img in reversed(self.get(key) or ())
                     if img.captured_at < t), None)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters for reports."""
        return {"sets": len(self._sets),
                "bytes": sum(self._bytes.values()),
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def clear(self) -> int:
        """Drop every cached set (memory and disk); returns count."""
        removed = len(self._sets)
        self._sets.clear()
        self._bytes.clear()
        if self.cas is not None:
            removed += sum(self.cas.drop_ref(name)
                           for name in self.cas.ref_names()
                           if name.startswith(self._ref("")))
        return removed
