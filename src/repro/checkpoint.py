"""Checkpoint records.

A :class:`Checkpoint` freezes a process state through the
:mod:`~repro.snapshot` pipeline so that restoring it cannot alias live
objects — exactly the isolation property real volatile/stable
checkpoints have.  The same record type is used for the MDCD protocol's
volatile checkpoints (Type-1 / Type-2 / pseudo) and the TB protocols'
stable checkpoints; the ``kind``, ``epoch`` and ``content`` fields say
which flavour a given record is.

The record wraps a :class:`~repro.snapshot.sections.SnapshotPayload` —
per-section encoded data — so stores can account bytes per section and
incremental captures can chain deltas.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from .snapshot import SnapshotPayload, decode_payload, encode_full
from .snapshot.sections import SnapshotEncoder
from .types import CheckpointKind, ProcessId, StableContent


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """An immutable snapshot of one process's checkpointable state.

    Attributes
    ----------
    process_id:
        Owner of the snapshot.
    kind:
        Volatile Type-1/Type-2/pseudo or stable (see
        :class:`~repro.types.CheckpointKind`).
    taken_at:
        True time at which the snapshot was taken.
    work_done:
        The process's accumulated computation (in work-seconds) at the
        moment of the snapshot — the quantity rollback distance is
        measured in (paper Fig. 7).
    payload:
        The encoded state: one
        :class:`~repro.snapshot.sections.SectionPayload` per snapshot
        section, each carrying its accounted byte size.
    epoch:
        For stable checkpoints, the TB epoch number ``Ndc`` this
        establishment belongs to; ``None`` for volatile checkpoints.
    content:
        For stable checkpoints written by the adapted TB protocol, which
        contents ended up on disk (current state / volatile copy /
        swapped); ``None`` otherwise.
    meta:
        Free-form annotations (dirty bit at snapshot time, trigger
        message sn, ...), used by traces and the analysis package.
    """

    process_id: ProcessId
    kind: CheckpointKind
    taken_at: float
    work_done: float
    payload: SnapshotPayload
    epoch: Optional[int] = None
    content: Optional[StableContent] = None
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __getstate__(self) -> Dict[str, Any]:
        # The fields; never a remembered view (see below).
        return {name: value for name, value in self.__dict__.items()
                if name != "_view"}

    def remember_view(self) -> None:
        """Let this checkpoint keep the auditor view it decodes to
        (:func:`repro.analysis.global_state.view_from_checkpoint`).

        Called by the fork table that owns the checkpoint: every copy
        thawed from that table reaches this very object, so the view is
        built once for all of them and lives exactly as long as the
        table pins the checkpoint.  The view rides beside the fields
        the way a resolved section rides on its payload — ``==`` and
        :func:`dataclasses.replace` do not see it, no pickle has it —
        and a checkpoint no table owns never remembers one.
        """
        self.__dict__.setdefault("_view", None)

    @classmethod
    def capture(cls, process_id: ProcessId, kind: CheckpointKind, state: Any,
                taken_at: float, work_done: float, epoch: Optional[int] = None,
                content: Optional[StableContent] = None,
                meta: Optional[Dict[str, Any]] = None,
                encoder: Optional[SnapshotEncoder] = None) -> "Checkpoint":
        """Encode ``state`` and wrap it in a checkpoint record.

        ``encoder`` is the owning process's
        :class:`~repro.snapshot.sections.SnapshotEncoder`; when given,
        the journal and message-log sections may encode as deltas
        against the process's previous capture.  Without it, the state
        is encoded whole — arbitrary (non-snapshot) states always are.
        """
        if encoder is not None:
            payload = encoder.encode_snapshot(state)
        else:
            payload = encode_full(state)
        return cls(process_id=process_id, kind=kind, taken_at=taken_at,
                   work_done=work_done, payload=payload,
                   epoch=epoch, content=content, meta=dict(meta or {}))

    def restore_state(self) -> Any:
        """The snapshotted state, the caller's to mutate (see
        :func:`~repro.snapshot.sections.decode_payload`)."""
        return decode_payload(self.payload)

    def rewritten(self, **changes: Any) -> "Checkpoint":
        """A copy with some fields replaced (used when the adapted TB
        protocol swaps checkpoint contents mid-blocking)."""
        return dataclasses.replace(self, **changes)

    def with_section(self, section: str, value: Any) -> "Checkpoint":
        """A copy with one payload section re-encoded from ``value``
        (the ``save_unacked`` ablation rewrites the counters section
        without disturbing the rest)."""
        return dataclasses.replace(
            self, payload=self.payload.replace_section(section, value))

    @property
    def size_bytes(self) -> int:
        """Accounted size of the encoded state — a proxy for
        checkpoint cost."""
        return self.payload.nbytes
