"""Sectioned snapshot payloads and the per-process incremental encoder.

A :class:`~repro.host.ProcessSnapshot` is not one opaque blob: its
parts change at very different rates (the app state every step, the
journals once per message, the MDCD knowledge once per validation) and
answer different cost questions.  The pipeline therefore splits every
capture into independently-encoded *sections*:

========= ==========================================================
section   snapshot fields
========= ==========================================================
app       ``app_state`` (declares ``snapshot_section = "app"``)
mdcd      ``mdcd``
journals  ``journal_sent``, ``journal_recv``
msg_log   ``msg_log``
counters  everything else (sequence counter, dedup set, unacked
          messages, workload cursor, per-destination counters)
========= ==========================================================

Membership is *declared by the state objects themselves* (a
``snapshot_section`` class attribute — see :class:`~repro.app
.component.AppState`, :class:`~repro.mdcd.state.MdcdState`,
:class:`~repro.journal.Journal`, :class:`~repro.messages.log
.MessageLog`); snapshot fields without a declaration land in
``counters``.  Each section value is the ``{field name: value}`` dict,
so decoding reassembles a snapshot by merging sections — new snapshot
fields need no pipeline change.

:class:`SnapshotEncoder` (one per process) additionally encodes the
``journals`` and ``msg_log`` sections of steady-state captures as
deltas against the previous capture (see :mod:`~repro.snapshot.delta`),
emitting a full section on first capture, when the delta language
cannot express the change, or every ``max_chain`` captures (bounding
restore replay length and the retained chain).  A restore does not
start a chain over: the next capture's delta chains to the restored
checkpoint's own section (:meth:`SnapshotEncoder.rebase`).

There are two ways back, and a ``journals`` / ``msg_log`` section is
decoded once for both: what it resolved to stays *on its*
:class:`SectionPayload`.  :func:`decode_payload` — a rollback, whose
process goes on to mutate what it gets — hands out private containers
over the resolved value's frozen records.  :class:`ChainReader` is the
encoder's read-side twin for a consumer that reads one process's
payloads in capture order and only inspects them (the online auditor):
it keeps a cursor per section, decodes just what moved past it, and
only for the sections the consumer reads (:class:`SnapshotView`).
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Any, Dict, Optional, Tuple

from .codec import decode, encode, record
from ..journal import Journal
from .delta import (
    DELTA_SECTIONS,
    JournalBaseline,
    JournalDelta,
    LogBaseline,
    LogDelta,
    advance_journal,
    advance_log,
    journal_delta,
    log_delta,
    private_journal,
    private_log,
)

#: Canonical section order (stable across runs; payload tuples and
#: reports follow it).
SECTION_ORDER = ("app", "mdcd", "journals", "msg_log", "counters")

#: Section name for opaque (non-``ProcessSnapshot``) captures.
OPAQUE_SECTION = "state"


def declared_section(value: Any) -> Optional[str]:
    """The section a state object declares membership of, if any."""
    return getattr(type(value), "snapshot_section", None)


@dataclasses.dataclass(frozen=True)
class SectionPayload:
    """One encoded section of one checkpoint.

    ``data`` is opaque to everything but :mod:`~repro.snapshot.codec`;
    ``nbytes``, its length, is the accounted byte cost.  A delta
    payload (``full=False``) chains to the payload it was diffed
    against; ``depth`` counts the chain links back to the nearest full
    section.

    What a ``journals`` / ``msg_log`` payload resolved to rides beside
    the fields (:func:`_resolved`): ``==`` and :func:`dataclasses
    .replace` do not see it, and no pickle (image, fork dump) has it.
    """

    section: str
    data: bytes
    nbytes: int
    full: bool = True
    base: Optional["SectionPayload"] = None
    depth: int = 0

    def __getstate__(self) -> Dict[str, Any]:
        return {name: value for name, value in self.__dict__.items()
                if name != "_resolved"}


@dataclasses.dataclass(frozen=True)
class SnapshotPayload:
    """The encoded form of one checkpoint's state: a tuple of section
    payloads (``SECTION_ORDER``), or a single opaque section for
    non-snapshot captures."""

    sections: Tuple[SectionPayload, ...]

    @property
    def nbytes(self) -> int:
        """Total accounted bytes across sections (the checkpoint-cost
        proxy stores aggregate)."""
        return sum(p.nbytes for p in self.sections)

    @property
    def opaque(self) -> bool:
        """Whether this wraps an arbitrary object rather than a
        sectioned process snapshot."""
        return (len(self.sections) == 1
                and self.sections[0].section == OPAQUE_SECTION)

    def replace_section(self, section: str, value: Any) -> "SnapshotPayload":
        """A copy with one section re-encoded (full) from ``value``.

        Used when a consumer rewrites part of a captured state (the
        ``save_unacked`` ablation clears the unacked list) without
        re-encoding — or breaking the delta chains of — the others.
        """
        return record(SnapshotPayload, {"sections": tuple([
            _encode_section(section, value)
            if payload.section == section else payload
            for payload in self.sections])})


def _encode_section(section: str, value: Any,
                    tip: Optional[SectionPayload] = None) -> SectionPayload:
    """Encode one section value: full, or a delta chained to ``tip``."""
    data = encode(value)
    if tip is None:
        return record(SectionPayload, {
            "section": section, "data": data, "nbytes": len(data),
            "full": True, "base": None, "depth": 0})
    return record(SectionPayload, {
        "section": section, "data": data, "nbytes": len(data),
        "full": False, "base": tip, "depth": tip.depth + 1})


#: Field -> section layout per snapshot class, as ``(section, field
#: names)`` pairs in ``SECTION_ORDER`` (``None``: not sectioned).  The
#: declaration lives on a field's value type and a dataclass field
#: holds one kind of value, so the layout is resolved from the first
#: instance of a class instead of reflecting over it at every capture.
_LAYOUTS: Dict[type, Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]]] = {}

#: Field name -> section, from every layout computed: which section a
#: :class:`SnapshotView` resolves for a field it has not read yet (a
#: field it cannot place resolves them all).
_SECTION_OF: Dict[str, str] = {}


def _layout(state: Any) -> Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]]:
    """The section layout of ``state``'s class; ``None`` unless it is a
    dataclass with section-declaring fields (in practice: a
    :class:`~repro.host.ProcessSnapshot`)."""
    cls = type(state)
    try:
        return _LAYOUTS[cls]
    except KeyError:
        pass
    layout = None
    if dataclasses.is_dataclass(state) and not isinstance(state, type):
        groups: Dict[str, list] = {name: [] for name in SECTION_ORDER}
        declared = False
        for field in dataclasses.fields(state):
            section = declared_section(getattr(state, field.name))
            declared = declared or section is not None
            groups[section if section in groups else "counters"].append(
                field.name)
        if declared:
            layout = tuple((name, tuple(names))
                           for name, names in groups.items() if names)
            for section, names in layout:
                for name in names:
                    _SECTION_OF.setdefault(name, section)
    _LAYOUTS[cls] = layout
    return layout


def split_sections(snapshot: Any) -> Dict[str, Dict[str, Any]]:
    """Group a snapshot's fields by declared section (empty for a
    state that is not sectioned)."""
    return {section: {name: getattr(snapshot, name) for name in names}
            for section, names in _layout(snapshot) or ()}


def encode_full(state: Any) -> SnapshotPayload:
    """One-shot full encoding (no incremental state).

    ``ProcessSnapshot``-like dataclasses with declared sections are
    sectioned; anything else becomes a single opaque section — the path
    arbitrary test states and rewritten snapshots take.
    """
    sections = split_sections(state)
    if sections:
        return record(SnapshotPayload, {"sections": tuple([
            _encode_section(name, fields)
            for name, fields in sections.items()])})
    return record(SnapshotPayload, {
        "sections": (_encode_section(OPAQUE_SECTION, state),)})


def _decode(payload: SectionPayload) -> Any:
    return decode(payload.data)


def _resolved(payload: SectionPayload) -> Tuple[Dict[str, Any], Dict]:
    """What a ``journals`` / ``msg_log`` section resolves to, decoded
    once per payload object and remembered on it: the ``{field: value}``
    dict and, per journal field, the keys of the records still
    unvalidated (all a private copy has to duplicate).

    The remembered value is never written to again: a delta replays
    persistently from its nearest resolved ancestor (its full base, at
    the latest — remembered too, so a chain's values share their frozen
    records), and callers either copy what they get (:func:`_private`)
    or only read it (:class:`ChainReader`).
    """
    known = payload.__dict__.get("_resolved")
    if known is not None:
        return known
    chain = []
    node = payload
    while not node.full and "_resolved" not in node.__dict__:
        chain.append(node)
        node = node.base
        if node is None:
            raise ValueError(f"delta chain of section {payload.section!r} "
                             "has no full base payload")
    value = _resolved(node)[0] if chain else _decode(node)
    for link in reversed(chain):
        value = _apply_section_delta(link.section, value, _decode(link))
    resolved = (value, {
        field: tuple([key for key, rec in journal._records.items()
                      if not rec.validated])
        for field, journal in value.items() if type(journal) is Journal})
    object.__setattr__(payload, "_resolved", resolved)
    return resolved


def _private(resolved: Tuple[Dict[str, Any], Dict]) -> Dict[str, Any]:
    """Private containers over a resolved section's frozen leaves: a
    new ``Journal`` / ``MessageLog`` per field, sharing the validated
    records and the log entries and holding its own copy of every
    unvalidated record.  What the owner then validates, prunes,
    discards, appends or reclaims shows nowhere else."""
    value, unvalidated = resolved
    return {field: (private_journal(shared, unvalidated[field])
                    if field in unvalidated else private_log(shared))
            for field, shared in value.items()}


#: Per delta section: unpack a field's packed (plain-tuple) delta,
#: replay it.
_REPLAY = {"journals": (JournalDelta.unpack, advance_journal),
           "msg_log": (LogDelta.unpack, advance_log)}


def _apply_section_delta(section: str, base_value: Dict[str, Any],
                         delta_value: Dict[str, Any]) -> Dict[str, Any]:
    """Replay one decoded delta onto a decoded base value, leaving
    ``base_value`` and everything it holds untouched (it is out in
    views, or remembered on its payload)."""
    unpack, advance = _REPLAY[section]
    out = dict(base_value)
    for field, packed in delta_value.items():
        out[field] = advance(out[field], unpack(packed))
    return out


def _owned_section(payload: SectionPayload) -> Dict[str, Any]:
    """One section's fields, the caller's to mutate."""
    if payload.section in DELTA_SECTIONS:
        return _private(_resolved(payload))
    return _decode(payload)


def decode_payload(payload: SnapshotPayload) -> Any:
    """Decode a payload back into the captured state (opaque payloads:
    the stored object).  The caller owns the result: every call returns
    new containers, and new copies of whatever can still change inside
    them, whether or not the payload was decoded before."""
    if payload.opaque:
        return _decode(payload.sections[0])
    from ..host import ProcessSnapshot  # deferred: host imports this package
    fields: Dict[str, Any] = {}
    for section in payload.sections:
        fields.update(_owned_section(section))
    return ProcessSnapshot(**fields)


def _shared_section(payload: SectionPayload) -> Dict[str, Any]:
    """One section's fields, read-only (a delta section's resolved
    value, remembered on its payload)."""
    if payload.section in DELTA_SECTIONS:
        return _resolved(payload)[0]
    return _decode(payload)


class SnapshotView:
    """A read-only ``ProcessSnapshot`` that decodes a section the first
    time one of its fields is read.

    The invariant checkers read the journals and MDCD knowledge of
    every view in a line, the application state and the unacked list
    only on some paths, and the message log never: a view resolves
    just the sections its reader asks for.  A section resolves through
    the :class:`ChainReader` that made the view — its per-section
    cursor, so a field gets exactly the value an eager read would
    give it — or, for a view no one reader owns (``reader=None``, or
    the reader is gone), as the payload's own remembered value.

    The reader is held weakly: it keeps its last view (the whole-payload
    memo), and a strong back-reference would be a cycle outliving the
    run.  Resolved fields live in the instance ``__dict__``, so a field
    read twice costs an ordinary attribute lookup.  A view compares
    equal to the plain ``ProcessSnapshot`` of all its fields.
    """

    __slots__ = ("_pending", "_reader", "__dict__")

    def __init__(self, payload: SnapshotPayload,
                 reader: Optional["ChainReader"] = None) -> None:
        #: The sections not resolved yet, by name.
        self._pending: Dict[str, SectionPayload] = {
            section.section: section for section in payload.sections}
        self._reader = weakref.ref(reader) if reader is not None else None

    def __getattr__(self, name: str) -> Any:
        # Only reached for a field not resolved yet.
        if name[:1] == "_":
            raise AttributeError(name)
        section = _SECTION_OF.get(name)
        if section is not None:
            self._resolve(section)
        if name not in self.__dict__:
            self._resolve_all()
        try:
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(
                f"snapshot has no field {name!r}") from None

    def _resolve(self, section: str) -> None:
        payload = self._pending.pop(section, None)
        if payload is None:
            return
        reader = self._reader() if self._reader is not None else None
        self.__dict__.update(reader._read_section(payload)
                             if reader is not None
                             else _shared_section(payload))

    def _resolve_all(self) -> None:
        for section in list(self._pending):
            self._resolve(section)

    def _materialize(self) -> Any:
        """The plain ``ProcessSnapshot`` of every field (shared
        values, still read-only)."""
        from ..host import ProcessSnapshot  # deferred: host imports this package
        self._resolve_all()
        return ProcessSnapshot(**self.__dict__)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SnapshotView):
            other = other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:
        return f"SnapshotView({self._materialize()!r})"


class ChainReader:
    """Incremental decoding of one process's payloads, for readers that
    never mutate what they read.

    Per section the reader keeps a *cursor*: the last
    :class:`SectionPayload` it read and the value it read as.  A delta
    section (``journals`` / ``msg_log``) whose ``base`` links lead back
    to the cursor (at most ``max_chain`` identity checks) is a
    descendant: only the links past the cursor are decoded, and each is
    applied *persistently* — a new journal / log container sharing the
    unchanged records — so a value handed out earlier never changes.
    Anything else (an older epoch, a chain that a restore continued from
    an older section) is the payload's own resolved value
    (:func:`_resolved`), taken as it is, and becomes the new cursor —
    the one value that moves: links it advances over are not remembered
    on their payloads.  A full section (``app`` / ``mdcd`` /
    ``counters``) with the cursor's encoded data is the cursor's value
    again, and a whole payload that *is* the one last
    read — the adapted TB protocol copies a dirty process's volatile
    checkpoint to disk epoch after epoch, one frozen payload under many
    checkpoint records — is the snapshot it read as: decoded once.

    A read decodes nothing by itself: it hands out a
    :class:`SnapshotView` whose sections come through these cursors
    the first time one of their fields is read, so a section no caller
    looks at (the auditor never reads ``msg_log``) is never decoded.
    The cursors answer correctly in any order, so a field read late
    gets the value an eager read would have given it.

    Values of successive reads share structure with each other, with
    the cursor and with resolved payloads; they are read-only by
    contract.  A rollback takes its own from :func:`decode_payload`.

    The cursor is a cache and nothing else: it is dropped on pickling,
    so it never enters a warm-start image or a flock dump.
    """

    def __init__(self) -> None:
        #: What was last read, and as what, per section (``None``: whole).
        self._cursor: Dict[Optional[str], Tuple[Any, Any]] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {"_cursor": {}}

    def read(self, payload: SnapshotPayload) -> Any:
        """The state ``payload`` froze, as a :class:`SnapshotView` that
        resolves its sections through this reader when first read;
        equal to ``decode_payload(payload)``, but not private to the
        caller."""
        if payload.opaque:
            return decode_payload(payload)
        last, snapshot = self._cursor.get(None, (None, None))
        if payload is not last:
            snapshot = SnapshotView(payload, self)
            self._cursor[None] = (payload, snapshot)
        return snapshot

    def _read_section(self, payload: SectionPayload) -> Dict[str, Any]:
        at, value = self._cursor.get(payload.section, (None, None))
        links = []
        node: Optional[SectionPayload] = payload
        while node is not None and node is not at and not node.full:
            links.append(node)
            node = node.base
        if at is not None and node is at:
            for link in reversed(links):
                value = _apply_section_delta(link.section, value,
                                             _decode(link))
        elif (payload.section in DELTA_SECTIONS or at is None
              or at.data != payload.data):
            value = _shared_section(payload)
        self._cursor[payload.section] = (payload, value)
        return value


class SnapshotEncoder:
    """Per-process capture pipeline with incremental section encoding.

    One encoder serves all of a process's captures (volatile and
    stable): it remembers, per delta-capable section, the
    previously emitted payload (the chain tip) and a lightweight
    baseline of the live state it encoded — after a restore, the
    restored payload's section and what the baseline of the restored
    state is built from (:meth:`rebase`) — and emits deltas while the
    chain stays representable and shorter than ``max_chain``.

    Determinism: the encoder reads the live state and writes only its
    own bookkeeping — capture can never perturb the simulation.
    """

    def __init__(self, max_chain: int = 16) -> None:
        if max_chain < 1:
            raise ValueError("max_chain must be at least 1")
        self.max_chain = max_chain
        self._tips: Dict[str, SectionPayload] = {}
        self._journal_baselines: Dict[str, JournalBaseline] = {}
        self._log_baselines: Dict[str, LogBaseline] = {}
        #: Per delta section, what the last restore left for the next
        #: capture to build its baselines from (:meth:`rebase`).
        self._restored: Dict[str, Tuple[Dict[str, Any],
                                        Dict[str, Dict[object, Any]]]] = {}
        #: Capture statistics per section: counts of full and delta
        #: encodes (the ``snapshot-stats`` CLI reads these).
        self.full_encodes: Dict[str, int] = {}
        self.delta_encodes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all incremental state: the next capture emits full
        sections.  Called when the system is released."""
        self._tips.clear()
        self._journal_baselines.clear()
        self._log_baselines.clear()
        self._restored.clear()

    def rebase(self, payload: SnapshotPayload, restored: Any) -> None:
        """Continue the delta chains from a restored checkpoint.

        ``restored`` is ``decode_payload(payload)`` as the process took
        it over, before any write to it.  The next capture's
        ``journals`` / ``msg_log`` sections are deltas chained to
        ``payload``'s own (their depth continues from it, so
        ``max_chain`` still bounds replay), diffed against what
        ``JournalBaseline.of`` / ``LogBaseline.of`` of ``restored``'s
        journals and log would give: the restored section's resolved
        value, with the process's private copies of its unvalidated
        records in their places.  Only those copies are picked out here
        (O(unvalidated records)); the baselines are built at the next
        capture, which most restores — a flock's forks — never reach.
        An opaque payload starts the chains over.
        """
        self.reset()
        if payload.opaque:
            return
        for section in payload.sections:
            name = section.section
            if name in DELTA_SECTIONS:
                value, unvalidated = _resolved(section)
                twins = {}
                for field, keys in unvalidated.items():
                    records = getattr(restored, field)._records
                    twins[field] = {key: records[key] for key in keys}
                self._tips[name] = section
                self._restored[name] = (value, twins)

    # ------------------------------------------------------------------
    def encode_snapshot(self, snapshot: Any) -> SnapshotPayload:
        """Encode one capture, emitting delta sections where possible."""
        sections = split_sections(snapshot)
        if not sections:
            return encode_full(snapshot)
        payloads = []
        for name, fields in sections.items():
            if name == "journals":
                payloads.append(self._encode_journals(fields))
            elif name == "msg_log":
                payloads.append(self._encode_log(fields))
            else:
                payloads.append(self._full_payload(name, fields))
        return record(SnapshotPayload, {"sections": tuple(payloads)})

    # ------------------------------------------------------------------
    def _encode_journals(self, fields: Dict[str, Any]) -> SectionPayload:
        tip = self._usable_tip("journals")
        restored = self._restored.pop("journals", None)
        if tip is not None and restored is not None:
            value, twins = restored
            self._journal_baselines = {
                name: JournalBaseline.restored(journal, twins[name])
                for name, journal in value.items()}
        if tip is not None and set(self._journal_baselines) == set(fields):
            delta_value = {
                name: journal_delta(journal, self._journal_baselines[name])
                for name, journal in fields.items()}
            payload = self._delta_payload("journals", delta_value, tip)
        else:
            payload = self._full_payload("journals", fields)
        self._journal_baselines = {name: JournalBaseline.of(journal)
                                   for name, journal in fields.items()}
        self._tips["journals"] = payload
        return payload

    def _encode_log(self, fields: Dict[str, Any]) -> SectionPayload:
        tip = self._usable_tip("msg_log")
        restored = self._restored.pop("msg_log", None)
        if tip is not None and restored is not None:
            self._log_baselines = {name: LogBaseline.of(log)
                                   for name, log in restored[0].items()}
        delta_value: Optional[Dict[str, Any]] = None
        if tip is not None and set(self._log_baselines) == set(fields):
            delta_value = {}
            for name, log in fields.items():
                delta = log_delta(log, self._log_baselines[name])
                if delta is None:  # inexpressible (sn restart) -> full
                    delta_value = None
                    break
                delta_value[name] = delta
        if delta_value is not None:
            payload = self._delta_payload("msg_log", delta_value, tip)
        else:
            payload = self._full_payload("msg_log", fields)
        self._log_baselines = {name: LogBaseline.of(log)
                               for name, log in fields.items()}
        self._tips["msg_log"] = payload
        return payload

    # ------------------------------------------------------------------
    def _usable_tip(self, section: str) -> Optional[SectionPayload]:
        """The previous payload, unless the chain hit its length bound."""
        tip = self._tips.get(section)
        if tip is None or tip.depth + 1 >= self.max_chain:
            return None
        return tip

    def _full_payload(self, section: str, value: Any) -> SectionPayload:
        self._bump(self.full_encodes, section)
        return _encode_section(section, value)

    def _delta_payload(self, section: str, value: Any,
                       tip: SectionPayload) -> SectionPayload:
        self._bump(self.delta_encodes, section)
        return _encode_section(section, value, tip)

    @staticmethod
    def _bump(counter: Dict[str, int], key: str) -> None:
        counter[key] = counter.get(key, 0) + 1
