"""Global-state capture: turning checkpoint lines into checkable views.

A *line* is one checkpoint per in-service process — the state the system
would restart from.  :class:`ProcessView` decodes a checkpoint (through
the codec registry of :mod:`repro.snapshot`) into the underlying
:class:`~repro.host.ProcessSnapshot` plus the metadata the invariant
checkers need (epoch, dirty bit at snapshot time, ground-truth
corruption).  A one-off view replays the checkpoint's delta chains
from their base; a caller that walks one process's checkpoints in
order (the online auditor) passes that process's
:class:`~repro.snapshot.ChainReader` and pays for each delta once — and
only for the sections its checkers read.  Views are read-only either
way.  Lines
can be built from stable storage (the hardware recovery line) or from
the live process states (for end-of-run oracles).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from ..checkpoint import Checkpoint
from ..host import FtProcess, ProcessSnapshot
from ..snapshot import ChainReader, SnapshotView
from ..types import ProcessId


@dataclasses.dataclass
class ProcessView:
    """One process's state as reflected by one snapshot."""

    process_id: ProcessId
    snapshot: ProcessSnapshot
    taken_at: float
    work_done: float
    epoch: Optional[int] = None
    kind: Optional[str] = None
    #: Stable-content case of the source checkpoint (``"current-state"``
    #: / ``"volatile-copy"``), ``None`` for volatile and live views.
    content: Optional[str] = None
    #: The source checkpoint's annotations, by reference (read-only,
    #: like everything a view holds); empty for live views.
    meta: Dict = dataclasses.field(default_factory=dict)

    @property
    def dirty_bit(self) -> int:
        """The dirty bit *inside* the snapshot (the knowledge the
        restored process would wake up with)."""
        return self.snapshot.mdcd.dirty_bit

    @property
    def truly_corrupt(self) -> bool:
        """Ground truth: is the snapshotted application state actually
        contaminated?"""
        return self.snapshot.app_state.corrupt


def view_from_checkpoint(checkpoint: Checkpoint,
                         reader: Optional[ChainReader] = None) -> ProcessView:
    """Decode a checkpoint into a view.

    Without a ``reader`` the state is a private ``restore_state()``
    copy (full delta-chain replay).  With the owning process's reader
    it is a :class:`~repro.snapshot.sections.SnapshotView`: a section
    is decoded when a checker first reads one of its fields, only the
    chain links past the reader's cursor, and the state shares
    structure with the reader's earlier views.

    A checkpoint a fork table owns
    (:meth:`~repro.checkpoint.Checkpoint.remember_view`) keeps the view
    and hands the same one to every fork that checks it — sound because
    views are read-only by contract; its sections resolve from the
    shared payload, never through one fork's reader.  Any other
    checkpoint is private to one run that checks it once: its view is
    the caller's alone."""
    memo = checkpoint.__dict__
    view = memo.get("_view")
    if view is None:
        if reader is None:
            snapshot = checkpoint.restore_state()
        elif "_view" in memo:
            # Every fork gets this view: it resolves through no fork's
            # reader, only through the (shared) payload itself.
            snapshot = SnapshotView(checkpoint.payload)
        else:
            snapshot = reader.read(checkpoint.payload)
        view = ProcessView(
            process_id=checkpoint.process_id,
            snapshot=snapshot,
            taken_at=checkpoint.taken_at,
            work_done=checkpoint.work_done,
            epoch=checkpoint.epoch,
            kind=checkpoint.kind.value,
            content=(checkpoint.content.value
                     if checkpoint.content is not None else None),
            meta=checkpoint.meta)
        if "_view" in memo:
            memo["_view"] = view
    return view


class LiveState:
    """A read-only ``ProcessSnapshot`` over a process's live fields —
    the ones a checker or a finding's summary reads.

    Each field is the process's own object, read when asked for: the
    checkers read the journals and MDCD knowledge of every live view,
    the application state only for the ground-truth test, and the
    unacknowledged list only when a sent-but-not-received record
    reaches that rule — so a live check copies nothing, where
    :meth:`~repro.host.FtProcess.make_snapshot` would copy every dedup
    key and sort the unacknowledged set."""

    __slots__ = ("_process",)

    def __init__(self, process: FtProcess) -> None:
        self._process = process

    @property
    def app_state(self):
        return self._process.component.state

    @property
    def mdcd(self):
        return self._process.mdcd

    @property
    def unacked(self):
        return self._process.acks.unacknowledged()

    @property
    def journal_sent(self):
        return self._process.journal_sent

    @property
    def journal_recv(self):
        return self._process.journal_recv


def live_view(process: FtProcess) -> ProcessView:
    """A view of the process's current state, read in place (nothing
    copied; read-only use only)."""
    return ProcessView(
        process_id=process.process_id,
        snapshot=LiveState(process),
        taken_at=process.sim.now,
        work_done=process.progress,
        epoch=process.current_ndc(),
        kind="live")


def stable_line(system, epoch: Optional[int] = None,
                readers: Optional[Dict[ProcessId, ChainReader]] = None
                ) -> Dict[ProcessId, ProcessView]:
    """The stable-storage line of a system.

    ``epoch=None`` picks, for each process, its latest completed stable
    checkpoint; an explicit epoch picks its checkpoint of that
    establishment (what hardware recovery restores), omitting a process
    that does not retain it.  ``readers`` holds one chain reader per
    process for a caller that builds line after line (see
    :func:`view_from_checkpoint`); missing processes are added.
    """
    line: Dict[ProcessId, ProcessView] = {}
    for checkpoint in line_checkpoints(system, epoch):
        reader = None
        if readers is not None:
            reader = readers.get(checkpoint.process_id)
            if reader is None:
                reader = readers[checkpoint.process_id] = ChainReader()
        line[checkpoint.process_id] = view_from_checkpoint(checkpoint, reader)
    return line


def line_checkpoints(system, epoch: Optional[int] = None
                     ) -> Tuple[Checkpoint, ...]:
    """The checkpoints :func:`stable_line` decodes, in process order —
    the one place a line picks each in-service process's checkpoint."""
    picked = []
    for proc in system.process_list():
        if proc.deposed:
            continue
        store = proc.node.stable
        checkpoint = (store.peek(proc.process_id) if epoch is None
                      else store.at_epoch(proc.process_id, epoch))
        if checkpoint is not None:
            picked.append(checkpoint)
    return tuple(picked)


def stable_lines(system) -> Iterator[Dict[ProcessId, ProcessView]]:
    """The :func:`stable_line` of every retained epoch that every
    in-service process completed, oldest first."""
    epochs = [set(proc.node.stable.epochs(proc.process_id))
              for proc in system.process_list() if not proc.deposed]
    for epoch in sorted(set.intersection(*epochs) if epochs else ()):
        yield stable_line(system, epoch=epoch)


def common_stable_line(system) -> Dict[ProcessId, ProcessView]:
    """The line hardware recovery would actually restore right now: the
    minimum epoch completed by every in-service process, each process's
    checkpoint picked as in :func:`stable_line`."""
    epochs: List[int] = []
    for proc in system.process_list():
        if proc.deposed:
            continue
        latest = proc.node.stable.peek(proc.process_id)
        if latest is not None and latest.epoch is not None:
            epochs.append(latest.epoch)
    if not epochs:
        return {}
    return stable_line(system, epoch=min(epochs))


def live_line(system) -> Dict[ProcessId, ProcessView]:
    """Views of every in-service process's current state."""
    return {proc.process_id: live_view(proc)
            for proc in system.process_list() if not proc.deposed}
