"""File-backed stable storage — the live
:class:`~repro.runtime.ports.StablePort`.

Durability is the whole contract: a checkpoint whose ``save`` returned
must survive ``kill -9`` of the owning process.  Each checkpoint is
pickled to a temporary file, flushed, ``fsync``'d, atomically renamed
into place, and the directory entry is fsync'd too — the standard
write-new/rename/sync discipline, so a crash leaves either the old
state or the new, never a torn file.  The in-memory
:class:`~repro.sim.storage.StableStore` chain fronts the files (same
surface, same trimming, same accounting); a restarted process rebuilds
the chain from the directory.

A file is the sha256 of its body (hex) followed by the body, and the
restart path unpickles only a body that verifies: a torn, flipped or
foreign file is skipped and counted (:attr:`FileStableStore
.damaged_files`), so recovery falls back to the newest epoch that
reads back as it was written instead of stopping the agent.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

from ..cas import blob_digest
from ..checkpoint import Checkpoint
from ..sim.storage import StableStore
from ..types import ProcessId

_SUFFIX = ".ckpt"
_DIGEST_LEN = len(blob_digest(b""))


class FileStableStore(StableStore):
    """Durable checkpoint store over a directory of pickle files.

    ``write_latency`` defaults to zero: the live backend pays the
    *actual* fsync cost instead of a modelled one (the TB blocking
    formula's floor is then the real write time, as it should be).
    """

    def __init__(self, root: str, history: int = 2,
                 write_latency: float = 0.0) -> None:
        super().__init__(history=history, write_latency=write_latency)
        self.root = root
        #: Checkpoint files the restart path found unreadable (damaged
        #: or not this store's) and left out of the chains.
        self.damaged_files = 0
        os.makedirs(root, exist_ok=True)
        self._recover_chains()

    # ------------------------------------------------------------------
    # StableStore overrides: mirror every chain mutation onto disk
    # ------------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> None:
        super().save(checkpoint)
        self._persist(checkpoint)
        self._prune_files(checkpoint.process_id)

    def discard_after_epoch(self, process_id: ProcessId, epoch: int) -> int:
        discarded = super().discard_after_epoch(process_id, epoch)
        if discarded:
            self._prune_files(process_id)
        return discarded

    # ------------------------------------------------------------------
    def _filename(self, checkpoint: Checkpoint) -> str:
        epoch = -1 if checkpoint.epoch is None else checkpoint.epoch
        return f"{checkpoint.process_id}__{epoch:08d}{_SUFFIX}"

    def _persist(self, checkpoint: Checkpoint) -> None:
        final = os.path.join(self.root, self._filename(checkpoint))
        tmp = final + ".tmp"
        body = pickle.dumps(checkpoint)
        with open(tmp, "wb") as handle:
            handle.write(blob_digest(body).encode("ascii") + body)
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp, final)
        self._sync_dir()

    def _sync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _prune_files(self, process_id: ProcessId) -> None:
        """Delete files for checkpoints the in-memory chain no longer
        retains (history trim or post-recovery discard)."""
        keep = {self._filename(ckpt) for ckpt in self.history(process_id)}
        prefix = f"{process_id}__"
        removed = False
        for name in os.listdir(self.root):
            if (name.startswith(prefix) and name.endswith(_SUFFIX)
                    and name not in keep):
                os.unlink(os.path.join(self.root, name))
                removed = True
        if removed:
            self._sync_dir()

    def _recover_chains(self) -> None:
        """Rebuild per-process chains from the directory (restart path).

        Files are replayed in epoch order through the parent ``save``
        (re-applying history trimming); leftover temporaries from an
        interrupted write are discarded — their rename never happened,
        so they were never durable.  A file that does not read back as
        the checkpoint its name says is counted and skipped.
        """
        entries = []
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name.endswith(".tmp"):
                os.unlink(path)
                continue
            if not name.endswith(_SUFFIX):
                continue
            checkpoint = self._read_verified(path)
            if checkpoint is None or self._filename(checkpoint) != name:
                self.damaged_files += 1
                continue
            entries.append(checkpoint)
        entries.sort(key=lambda c: (str(c.process_id),
                                    -1 if c.epoch is None else c.epoch))
        for checkpoint in entries:
            StableStore.save(self, checkpoint)

    @staticmethod
    def _read_verified(path: str) -> Optional[Checkpoint]:
        """The checkpoint stored at ``path``, or ``None`` unless the
        body matches the digest written in front of it."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        body = data[_DIGEST_LEN:]
        if blob_digest(body).encode("ascii") != data[:_DIGEST_LEN]:
            return None
        try:
            checkpoint = pickle.loads(body)
        except Exception:  # digest-valid bytes some other writer left
            return None
        return checkpoint if isinstance(checkpoint, Checkpoint) else None
