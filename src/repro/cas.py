"""Content-addressed blob store: verified files, transfer dedup.

A leaf module: :mod:`repro.warmstart` keeps its on-disk image sets here
(:class:`~repro.warmstart.store.ImageStore` is a typed view over a
:class:`BlobStore`, as :class:`~repro.parallel.cache.ResultCache` is for
campaign cells) and :mod:`repro.fabric` ships the same blobs between
hosts, so an image set exists once per directory whoever wrote it.
Every payload is stored as an immutable *blob* keyed by the sha256 of
its bytes.  Content addressing gives the fabric its transfer economics
for free:

* a blob digest names exactly one byte sequence forever, so a worker
  that already holds a digest never fetches it again — across shards,
  across campaigns, across supervisors;
* writes are atomic-rename (:func:`atomic_write`) and idempotent, so
  concurrent writers of the same content cannot corrupt each other —
  last rename wins and both renames carry identical bytes;
* reads verify the digest before returning, so a torn or corrupted file
  counts as absent rather than poisoning a campaign.

Mutable names live beside the blobs as *refs*: tiny files mapping a
logical key (e.g. a warm-start prefix digest) to a blob digest, also
atomic-rename written.  The supervisor refs each exported image set by
its prefix, so a second campaign over the same configuration finds the
existing blob and re-announces the same digest — which every warm
worker already caches, making the re-transfer count exactly zero.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path
from typing import Dict, List, Optional

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_REF_RE = re.compile(r"^[0-9A-Za-z_.-]{1,128}$")


def blob_digest(data: bytes) -> str:
    """The content address of ``data``."""
    return hashlib.sha256(data).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a pid-suffixed temp file and
    one rename: readers see the old content or the new, never a torn
    file, and two processes writing the same path never share a temp."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class BlobStore:
    """A directory of sha256-addressed immutable blobs plus named refs.

    Layout::

        <root>/blobs/<digest>          the bytes themselves
        <root>/refs/<name>             one line: a blob digest

    All counters are per-instance (a process-lifetime view), not
    persisted: ``hits``/``misses`` count :meth:`get` outcomes,
    ``puts``/``dedup_puts`` distinguish new writes from content already
    present — the "transferred exactly once" assertions read them.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.dedup_puts = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def _blob_path(self, digest: str) -> Path:
        if not _DIGEST_RE.match(digest):
            raise ValueError(f"malformed blob digest {digest!r}")
        return self.root / "blobs" / digest

    def _ref_path(self, name: str) -> Path:
        if not _REF_RE.match(name):
            raise ValueError(f"malformed ref name {name!r}")
        return self.root / "refs" / name

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------
    def _read(self, digest: str) -> Optional[bytes]:
        """The blob's bytes if they are on disk and hash to its name."""
        try:
            data = self._blob_path(digest).read_bytes()
        except OSError:
            return None
        return data if blob_digest(data) == digest else None

    def put(self, data: bytes) -> str:
        """Store ``data``; returns its digest.  Idempotent — content
        already present is not rewritten (``dedup_puts``); a file that
        no longer hashes to its name is."""
        digest = blob_digest(data)
        path = self._blob_path(digest)
        if self._read(digest) is not None:
            self.dedup_puts += 1
            return digest
        atomic_write(path, data)
        self.puts += 1
        self.bytes_written += len(data)
        return digest

    def get(self, digest: str) -> Optional[bytes]:
        """The blob's bytes, or ``None``.  A file whose content does not
        hash to its name (torn write, disk fault) counts as absent."""
        data = self._read(digest)
        if data is None:
            self.misses += 1
        else:
            self.hits += 1
        return data

    def has(self, digest: str) -> bool:
        """Whether the blob exists (no hit/miss accounting, no
        content verification — ``get`` still verifies on read)."""
        try:
            return self._blob_path(digest).is_file()
        except ValueError:
            return False

    def digests(self) -> List[str]:
        """Every blob digest currently on disk (sorted)."""
        blobs = self.root / "blobs"
        if not blobs.is_dir():
            return []
        return sorted(p.name for p in blobs.iterdir()
                      if _DIGEST_RE.match(p.name))

    # ------------------------------------------------------------------
    # refs
    # ------------------------------------------------------------------
    def set_ref(self, name: str, digest: str) -> None:
        """Point ref ``name`` at ``digest`` (atomic replace)."""
        if not _DIGEST_RE.match(digest):
            raise ValueError(f"malformed blob digest {digest!r}")
        atomic_write(self._ref_path(name), digest.encode("ascii"))

    def ref(self, name: str) -> Optional[str]:
        """The digest ref ``name`` points at, if the ref exists *and*
        its target blob is present (a dangling ref counts as absent)."""
        try:
            digest = self._ref_path(name).read_text("ascii").strip()
        except (OSError, ValueError):
            return None
        if not _DIGEST_RE.match(digest) or not self.has(digest):
            return None
        return digest

    def ref_names(self) -> List[str]:
        """Every ref currently on disk (sorted)."""
        refs = self.root / "refs"
        if not refs.is_dir():
            return []
        return sorted(p.name for p in refs.iterdir() if _REF_RE.match(p.name))

    def drop_ref(self, name: str) -> bool:
        """Remove ref ``name`` and the blob it names; whether a ref was
        there.  For stores whose refs each own their blob."""
        path = self._ref_path(name)
        try:
            digest = path.read_text("ascii").strip()
            path.unlink()
        except (OSError, ValueError):
            return False
        if _DIGEST_RE.match(digest):
            self._blob_path(digest).unlink(missing_ok=True)
        return True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters for reports and the bench's dedup assertions."""
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "dedup_puts": self.dedup_puts,
                "bytes_written": self.bytes_written,
                "blobs": len(self.digests())}
