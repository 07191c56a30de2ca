"""Incremental (delta) encoding of the journal and message-log sections.

Between two consecutive captures of one process the journals and the
shadow's suppressed-message log change by a handful of entries, yet the
seed pipeline re-pickled them whole every time — making checkpoint cost
O(journal size) instead of O(new entries).  This module computes the
difference of a section against the previous capture and replays it:

* a :class:`JournalDelta` is the records added, the keys whose
  ``validated`` flag flipped, the keys pruned/discarded, and the new
  pruning horizon;
* a :class:`LogDelta` is the entries appended past the previous
  capture's last sequence number plus the surviving prefix bound (the
  reclaim/clear effect) and the monitoring counter.

Capture-side *baselines* record just enough of the previous state to
diff against (the journal's record objects and which of them were still
unvalidated; the log's sequence numbers) — references, not a copy of
the section.  A baseline is only valid for the state the previous
payload encodes, so the encoder refreshes it at every capture and drops
it entirely on restore (the full-section fallback).

A delta is replayed *persistently* (:func:`advance_journal` /
:func:`advance_log`): onto a new container that shares every unchanged
record with the old one, because the values a chain resolves to are
held — on their payloads, in the auditor's views — and must not change.
A rollback takes its own containers over such a value the same way
(:func:`private_journal` / :func:`private_log`).

If the live section has changed in a way the delta language cannot
express (a message log whose sequence numbers restarted after
``clear()``), the diff functions return ``None`` and the encoder falls
back to a full section — correctness never depends on the delta being
representable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..journal import Journal, JournalRecord
from ..messages.log import LogEntry, MessageLog
from ..types import MessageKind

#: Sections that support delta encoding, in snapshot-assembly order.
DELTA_SECTIONS = ("journals", "msg_log")


def _pack_record(rec: JournalRecord) -> Tuple:
    """A journal record as a plain tuple — steady-state deltas are tiny
    and mostly overhead, so the wire form avoids pickling class
    references and field names for every payload.

    ``taint_map`` rides as an optional last slot: records without one
    (every record outside the N-component topologies) keep the wire
    form, and so the accounted bytes, they always had.
    """
    packed = (rec.key, rec.kind.value, rec.sender, rec.receiver, rec.sn,
              rec.sent_dirty, rec.validated, rec.corrupt, rec.time, rec.dsn)
    return packed if rec.taint_map is None else packed + (rec.taint_map,)


def _unpack_record(data: Tuple) -> JournalRecord:
    (key, kind, sender, receiver, sn, sent_dirty, validated, corrupt,
     time, dsn) = data[:10]
    return JournalRecord(key, MessageKind(kind), sender, receiver, sn,
                         sent_dirty, validated, corrupt, time,
                         data[10] if len(data) > 10 else None, dsn)


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JournalBaseline:
    """Capture-side memory of one journal at the previous capture: its
    record objects (a shallow copy of the mapping) and the keys that
    were still unvalidated.

    Comparing by object identity is exact: a live record is only ever
    mutated through ``validated`` (one-way), and a key that recovery
    discarded and re-added is a new object — encoded as remove + add
    rather than trusting the stale base record.
    """

    records: Dict[object, JournalRecord]
    unvalidated: FrozenSet[object]
    pruned_before: float

    @classmethod
    def of(cls, journal: Journal) -> "JournalBaseline":
        records = dict(journal._records)
        return cls(records=records,
                   unvalidated=frozenset([key for key, rec in records.items()
                                          if not rec.validated]),
                   pruned_before=journal.pruned_before)


@dataclasses.dataclass(frozen=True)
class JournalDelta:
    """The change of one journal since its baseline."""

    added: Tuple[JournalRecord, ...]
    revalidated: Tuple[object, ...]
    removed: Tuple[object, ...]
    pruned_before: float

    @property
    def entry_count(self) -> int:
        return len(self.added) + len(self.revalidated) + len(self.removed)

    def pack(self) -> Tuple:
        """The delta as plain tuples (the form that gets encoded)."""
        return (tuple(_pack_record(r) for r in self.added),
                self.revalidated, self.removed, self.pruned_before)

    @classmethod
    def unpack(cls, data: Tuple) -> "JournalDelta":
        added, revalidated, removed, pruned_before = data
        return cls(added=tuple(_unpack_record(t) for t in added),
                   revalidated=tuple(revalidated), removed=tuple(removed),
                   pruned_before=pruned_before)


def journal_delta(journal: Journal, base: JournalBaseline) -> JournalDelta:
    """Diff a live journal against its baseline."""
    records = journal._records
    was = base.records
    unvalidated = base.unvalidated
    removed = [key for key, rec in was.items() if records.get(key) is not rec]
    added: List[JournalRecord] = []
    revalidated: List[object] = []
    for key, rec in records.items():
        if was.get(key) is not rec:
            added.append(rec)
        elif rec.validated and key in unvalidated:
            revalidated.append(key)
    return JournalDelta(added=tuple(added), revalidated=tuple(revalidated),
                        removed=tuple(removed),
                        pruned_before=journal.pruned_before)


def private_journal(journal: Journal, mutable: Iterable[object]) -> Journal:
    """A new journal over ``journal``'s records: its own ``_records``
    dict and its own copy of the record under each key in ``mutable``.
    Sharing the rest is sound once they are validated (the only field
    written after construction, and one-way): given the unvalidated
    keys, the owner's writes never touch ``journal``."""
    out = Journal()
    records = out._records = dict(journal._records)
    for key in mutable:
        # copy.copy(record), minus its detour through __reduce_ex__.
        twin = JournalRecord.__new__(JournalRecord)
        twin.__dict__ = records[key].__dict__.copy()
        records[key] = twin
    out.pruned_before = journal.pruned_before
    return out


def advance_journal(journal: Journal, delta: JournalDelta) -> Journal:
    """The journal ``delta`` leads to, leaving ``journal`` untouched:
    the replay runs on a new container holding a copy of every record
    whose flag is about to flip (a revalidated key is by construction
    neither removed nor added)."""
    if not delta.entry_count and delta.pruned_before == journal.pruned_before:
        return journal
    out = private_journal(journal, delta.revalidated)
    records = out._records
    for key in delta.removed:
        records.pop(key, None)
    for rec in delta.added:
        # A re-added key moves to the end of the insertion order,
        # matching dict semantics in the live journal.
        records.pop(rec.key, None)
        records[rec.key] = rec
    for key in delta.revalidated:
        records[key].validated = True
    out.pruned_before = delta.pruned_before
    return out


# ----------------------------------------------------------------------
# message log
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LogBaseline:
    """Capture-side fingerprint of the message log: per entry, its
    sequence number (strictly increasing by construction) *and* the
    logged message's ``msg_id`` — so an entry added after a
    ``clear()``-restart that happens to reuse an old sequence number is
    never mistaken for the base entry it aliases."""

    ids: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, log: MessageLog) -> "LogBaseline":
        return cls(ids=tuple((entry.sn, entry.message.msg_id)
                             for entry in log))


@dataclasses.dataclass(frozen=True)
class LogDelta:
    """The change of the message log since its baseline.

    The live log evolves only by appending (increasing ``sn``),
    reclaiming a prefix, or clearing — so the new state is always "a
    suffix of the base, plus appended entries".  ``min_keep_sn`` bounds
    the surviving base suffix (``None`` keeps nothing).
    """

    min_keep_sn: Optional[int]
    appended: Tuple[LogEntry, ...]
    reclaimed_count: int

    def pack(self) -> Tuple:
        """The delta as plain tuples (the form that gets encoded);
        appended messages ship whole — a full section would carry them
        too."""
        return (self.min_keep_sn,
                tuple((e.sn, e.message, e.recipients) for e in self.appended),
                self.reclaimed_count)

    @classmethod
    def unpack(cls, data: Tuple) -> "LogDelta":
        min_keep_sn, appended, reclaimed_count = data
        return cls(min_keep_sn=min_keep_sn,
                   appended=tuple(LogEntry(sn=sn, message=message,
                                           recipients=recipients)
                                  for sn, message, recipients in appended),
                   reclaimed_count=reclaimed_count)


def log_delta(log: MessageLog, base: LogBaseline) -> Optional[LogDelta]:
    """Diff the live log against its baseline.

    Returns ``None`` when the delta language cannot express the change
    (sequence numbers restarted after a ``clear()``, whether or not
    they alias base entries), signalling the encoder to emit a full
    section.
    """
    base_last = base.ids[-1][0] if base.ids else None
    kept: List[Tuple[int, int]] = []
    appended: List[LogEntry] = []
    for entry in log:
        if base_last is not None and entry.sn <= base_last:
            kept.append((entry.sn, entry.message.msg_id))
        else:
            appended.append(entry)
    if kept and tuple(kept) != base.ids[len(base.ids) - len(kept):]:
        return None
    return LogDelta(min_keep_sn=kept[0][0] if kept else None,
                    appended=tuple(appended),
                    reclaimed_count=log.reclaimed_count)


def private_log(log: MessageLog) -> MessageLog:
    """A new log over ``log``'s entries (written once; a takeover
    re-send builds a new message from one)."""
    out = MessageLog()
    out._entries = list(log._entries)
    out.reclaimed_count = log.reclaimed_count
    return out


def advance_log(log: MessageLog, delta: LogDelta) -> MessageLog:
    """The log ``delta`` leads to, leaving ``log`` untouched (entries
    are shared)."""
    out = MessageLog()
    if delta.min_keep_sn is not None:
        out._entries = [e for e in log._entries if e.sn >= delta.min_keep_sn]
    out._entries.extend(delta.appended)
    out.reclaimed_count = delta.reclaimed_count
    return out
