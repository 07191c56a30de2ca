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
emitting a full section on first capture, after a restore, when the
delta language cannot express the change, or every ``max_chain``
captures (bounding restore replay length and the retained chain).

There are two ways back, and a ``journals`` / ``msg_log`` section is
decoded once for both: what it resolved to stays *on its*
:class:`SectionPayload`.  :func:`decode_payload` — a rollback, whose
process goes on to mutate what it gets — hands out private containers
over the resolved value's frozen records.  :class:`ChainReader` is the
encoder's read-side twin for a consumer that reads one process's
payloads in capture order and only inspects them (the online auditor):
it keeps a cursor per section and decodes just what moved past it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from .codec import decode, encode
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
        return SnapshotPayload(sections=tuple(
            _encode_section(section, value)
            if payload.section == section else payload
            for payload in self.sections))


def _encode_section(section: str, value: Any,
                    tip: Optional[SectionPayload] = None) -> SectionPayload:
    """Encode one section value: full, or a delta chained to ``tip``."""
    data = encode(value)
    if tip is None:
        return SectionPayload(section=section, data=data, nbytes=len(data))
    return SectionPayload(section=section, data=data, nbytes=len(data),
                          full=False, base=tip, depth=tip.depth + 1)


#: Field -> section layout per snapshot class, as ``(section, field
#: names)`` pairs in ``SECTION_ORDER`` (``None``: not sectioned).  The
#: declaration lives on a field's value type and a dataclass field
#: holds one kind of value, so the layout is resolved from the first
#: instance of a class instead of reflecting over it at every capture.
_LAYOUTS: Dict[type, Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]]] = {}


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
        return SnapshotPayload(sections=tuple(
            _encode_section(name, fields)
            for name, fields in sections.items()))
    return SnapshotPayload(
        sections=(_encode_section(OPAQUE_SECTION, state),))


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


def _assemble(payload: SnapshotPayload, read_section) -> Any:
    """A sectioned payload's section dicts (``read_section`` of each)
    merged into a fresh ``ProcessSnapshot``."""
    from ..host import ProcessSnapshot  # deferred: host imports this package
    fields: Dict[str, Any] = {}
    for section in payload.sections:
        fields.update(read_section(section))
    return ProcessSnapshot(**fields)


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
    return _assemble(payload, _owned_section)


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
    Anything else (an older epoch, a fresh full section after a restore
    reset the encoder) is the payload's own resolved value
    (:func:`_resolved`), taken as it is, and becomes the new cursor —
    the one value that moves: links it advances over are not remembered
    on their payloads.  A full section (``app`` / ``mdcd`` /
    ``counters``) with the cursor's encoded data is the cursor's value
    again, and a whole payload that *is* the one last
    read — the adapted TB protocol copies a dirty process's volatile
    checkpoint to disk epoch after epoch, one frozen payload under many
    checkpoint records — is the snapshot it read as: decoded once.

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
        """The state ``payload`` froze; equal to ``decode_payload(
        payload)``, but not private to the caller."""
        if payload.opaque:
            return decode_payload(payload)
        last, snapshot = self._cursor.get(None, (None, None))
        if payload is not last:
            snapshot = _assemble(payload, self._read_section)
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
        elif payload.section in DELTA_SECTIONS:
            value = _resolved(payload)[0]
        elif at is None or at.data != payload.data:
            value = _decode(payload)
        self._cursor[payload.section] = (payload, value)
        return value


class SnapshotEncoder:
    """Per-process capture pipeline with incremental section encoding.

    One encoder serves all of a process's captures (volatile and
    stable): it remembers, per delta-capable section, the
    previously emitted payload (the chain tip) and a lightweight
    baseline of the live state it encoded, and emits deltas while the
    chain stays representable and shorter than ``max_chain``.

    Determinism: the encoder reads the live state and writes only its
    own bookkeeping — capture can never perturb the simulation, so
    incremental and full runs produce identical event sequences.
    """

    def __init__(self, incremental: bool = True, max_chain: int = 16) -> None:
        self.incremental = incremental
        if max_chain < 1:
            raise ValueError("max_chain must be at least 1")
        self.max_chain = max_chain
        self._tips: Dict[str, SectionPayload] = {}
        self._journal_baselines: Dict[str, JournalBaseline] = {}
        self._log_baselines: Dict[str, LogBaseline] = {}
        #: Capture statistics per section: counts of full and delta
        #: encodes (the ``snapshot-stats`` CLI reads these).
        self.full_encodes: Dict[str, int] = {}
        self.delta_encodes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all incremental state: the next capture emits full
        sections.  Called after a restore, when the live journals and
        log are replaced by decoded copies the baselines do not
        describe."""
        self._tips.clear()
        self._journal_baselines.clear()
        self._log_baselines.clear()

    # ------------------------------------------------------------------
    def encode_snapshot(self, snapshot: Any) -> SnapshotPayload:
        """Encode one capture, emitting delta sections where possible."""
        sections = split_sections(snapshot)
        if not sections:
            return encode_full(snapshot)
        payloads = []
        for name, fields in sections.items():
            if self.incremental and name == "journals":
                payloads.append(self._encode_journals(fields))
            elif self.incremental and name == "msg_log":
                payloads.append(self._encode_log(fields))
            else:
                payloads.append(self._full_payload(name, fields))
        return SnapshotPayload(sections=tuple(payloads))

    # ------------------------------------------------------------------
    def _encode_journals(self, fields: Dict[str, Any]) -> SectionPayload:
        tip = self._usable_tip("journals")
        if tip is not None and set(self._journal_baselines) == set(fields):
            delta_value = {
                name: journal_delta(journal,
                                    self._journal_baselines[name]).pack()
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
        delta_value: Optional[Dict[str, Any]] = None
        if tip is not None and set(self._log_baselines) == set(fields):
            delta_value = {}
            for name, log in fields.items():
                delta = log_delta(log, self._log_baselines[name])
                if delta is None:  # inexpressible (sn restart) -> full
                    delta_value = None
                    break
                delta_value[name] = delta.pack()
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
