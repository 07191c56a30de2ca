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

There are two ways back.  :func:`decode_payload` replays every chain
from its full base into a private value — what a rollback needs, since
the restored process goes on to mutate it.  :class:`ChainReader` is the
encoder's read-side twin for a consumer that reads one process's
payloads in capture order and only inspects them (the online auditor):
it keeps a cursor per delta section and decodes just the links past it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple, Union

from .codec import Codec, get_codec
from .delta import (
    DELTA_SECTIONS,
    JournalBaseline,
    JournalDelta,
    LogBaseline,
    LogDelta,
    advance_journal,
    advance_log,
    apply_journal_delta,
    apply_log_delta,
    journal_delta,
    log_delta,
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

    ``data`` is opaque to everything but the codec identified by
    ``codec_id``.  ``nbytes`` is the accounted byte cost (see
    :meth:`~repro.snapshot.codec.Codec.measure`).  A delta payload
    (``full=False``) chains to the payload it was diffed against;
    ``depth`` counts the chain links back to the nearest full section.
    """

    section: str
    codec_id: str
    data: Any
    nbytes: int
    full: bool = True
    base: Optional["SectionPayload"] = None
    depth: int = 0


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

    def section_sizes(self) -> Dict[str, int]:
        """Accounted bytes per section (insertion order =
        ``SECTION_ORDER``)."""
        return {p.section: p.nbytes for p in self.sections}

    def get(self, section: str) -> Optional[SectionPayload]:
        """The payload of one section, or ``None``."""
        for payload in self.sections:
            if payload.section == section:
                return payload
        return None

    def replace_section(self, section: str, value: Any,
                        codec: Union[str, Codec, None] = None
                        ) -> "SnapshotPayload":
        """A copy with one section re-encoded (full) from ``value``.

        Used when a consumer rewrites part of a captured state (the
        ``save_unacked`` ablation clears the unacked list) without
        re-encoding — or breaking the delta chains of — the others.
        """
        out = []
        for payload in self.sections:
            if payload.section == section:
                chosen = get_codec(codec if codec is not None
                                   else payload.codec_id)
                data, nbytes = encode_value(value, chosen)
                payload = SectionPayload(section=section,
                                         codec_id=chosen.codec_id,
                                         data=data, nbytes=nbytes)
            out.append(payload)
        return SnapshotPayload(sections=tuple(out))


def encode_value(value: Any, codec: Codec) -> Tuple[Any, int]:
    """Encode one value, returning ``(data, accounted bytes)``."""
    data = codec.encode(value)
    return data, codec.measure(value, data)


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


def encode_full(state: Any, codec: Union[str, Codec, None] = None
                ) -> SnapshotPayload:
    """One-shot full encoding (no incremental state).

    ``ProcessSnapshot``-like dataclasses with declared sections are
    sectioned; anything else becomes a single opaque section — the path
    arbitrary test states and rewritten snapshots take.
    """
    chosen = get_codec(codec)
    sections = split_sections(state)
    if sections:
        payloads = []
        for name, fields in sections.items():
            data, nbytes = encode_value(fields, chosen)
            payloads.append(SectionPayload(section=name,
                                           codec_id=chosen.codec_id,
                                           data=data, nbytes=nbytes))
        return SnapshotPayload(sections=tuple(payloads))
    data, nbytes = encode_value(state, chosen)
    return SnapshotPayload(sections=(SectionPayload(
        section=OPAQUE_SECTION, codec_id=chosen.codec_id,
        data=data, nbytes=nbytes),))


#: Optional chain-resolution memo, installed by flock group execution.
#: Maps ``id(payload)`` of an already-resolved *delta* payload to the
#: payload (pinned, so the id stays valid) plus its re-encoded **full**
#: bytes.  A memoized resolve costs one codec decode instead of a
#: replay of up to ``max_chain`` layers — and because the cache stores
#: bytes, every caller still receives a fresh private value, so the
#: mutating consumers (delta application, process restores) stay safe.
_RESOLVE_CACHE: Optional[Dict[int, tuple]] = None

_RESOLVE_CACHE_MAX = 2048


def install_resolve_cache(cache: Optional[Dict[int, tuple]]) -> None:
    """Install (or, with ``None``, remove) the chain-resolution memo.
    Flock group execution scopes one to each group, whose forks share —
    and repeatedly decode — their prefix's payload chains."""
    global _RESOLVE_CACHE
    _RESOLVE_CACHE = cache


def _resolve_section(payload: SectionPayload) -> Dict[str, Any]:
    """Decode one section, replaying its delta chain if present."""
    if payload.full:
        return get_codec(payload.codec_id).decode(payload.data)
    cache = _RESOLVE_CACHE
    if cache is not None:
        entry = cache.get(id(payload))
        if entry is not None and entry[0] is payload:
            return get_codec(entry[2]).decode(entry[1])
    chain = []
    node: Optional[SectionPayload] = payload
    while node is not None and not node.full:
        chain.append(node)
        node = node.base
    if node is None:
        raise ValueError(f"delta chain of section {payload.section!r} has "
                         "no full base payload")
    value = get_codec(node.codec_id).decode(node.data)
    for delta_payload in reversed(chain):
        delta_value = get_codec(delta_payload.codec_id).decode(
            delta_payload.data)
        value = _apply_section_delta(delta_payload.section, value, delta_value)
    if cache is not None:
        if len(cache) >= _RESOLVE_CACHE_MAX:
            cache.clear()
        codec = get_codec(payload.codec_id)
        data, _nbytes = encode_value(value, codec)
        cache[id(payload)] = (payload, data, codec.codec_id)
        # ``value`` stays private (the cache holds independent bytes),
        # so handing it to the mutating caller is still sound.
    return value


def _apply_section_delta(section: str, base_value: Dict[str, Any],
                         delta_value: Dict[str, Any],
                         persistent: bool = False) -> Dict[str, Any]:
    """Replay one decoded delta onto a decoded base value: in place on
    a private one, or — ``persistent`` — leaving ``base_value`` and
    everything it holds untouched (the chain reader's values are out in
    views).

    Deltas travel in their packed (plain-tuple) wire form, so dispatch
    is by section name, not payload type.
    """
    out = dict(base_value)
    for field, packed in delta_value.items():
        if section == "journals":
            step = advance_journal if persistent else apply_journal_delta
            out[field] = step(out[field], JournalDelta.unpack(packed))
        elif section == "msg_log":
            step = advance_log if persistent else apply_log_delta
            out[field] = step(out[field], LogDelta.unpack(packed))
        else:  # a field the delta encoder chose to ship whole
            out[field] = packed
    return out


def decode_payload(payload: SnapshotPayload) -> Any:
    """Decode a payload back into the captured state.

    Opaque payloads return the stored object; sectioned payloads merge
    their section dicts into a fresh
    :class:`~repro.host.ProcessSnapshot`.
    """
    if payload.opaque:
        return get_codec(payload.sections[0].codec_id).decode(
            payload.sections[0].data)
    fields: Dict[str, Any] = {}
    for section_payload in payload.sections:
        fields.update(_resolve_section(section_payload))
    return _snapshot_from(fields)


def _snapshot_from(fields: Dict[str, Any]) -> Any:
    from ..host import ProcessSnapshot  # deferred: host imports this package
    return ProcessSnapshot(**fields)


class ChainReader:
    """Incremental decoding of one process's payloads, for readers that
    never mutate what they read.

    Per delta section the reader keeps a *cursor*: the last
    :class:`SectionPayload` it resolved and the value it resolved to.
    A payload whose ``base`` links lead back to the cursor (at most
    ``max_chain`` identity checks) is a descendant: only the links past
    the cursor are decoded, and each is applied *persistently* — a new
    journal / log container sharing the unchanged records — so a value
    handed out earlier never changes.  Anything else (an older epoch, a
    fresh full section after a restore reset the encoder) is resolved
    by the full replay of :func:`decode_payload` and becomes the new
    cursor.

    Values of successive reads share structure with each other and with
    the cursor; they are read-only by contract.  A rollback needs a
    private copy and keeps using :func:`decode_payload`.

    The cursor is a cache and nothing else: it is dropped on pickling,
    so it never enters a warm-start image or a flock dump.
    """

    def __init__(self) -> None:
        self._cursor: Dict[str, Tuple[SectionPayload, Dict[str, Any]]] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {"_cursor": {}}

    def read(self, payload: SnapshotPayload) -> Any:
        """The state ``payload`` froze; equal to ``decode_payload(
        payload)``, but not private to the caller."""
        if payload.opaque:
            return decode_payload(payload)
        fields: Dict[str, Any] = {}
        for section_payload in payload.sections:
            if section_payload.section in DELTA_SECTIONS:
                fields.update(self._read_section(section_payload))
            else:
                fields.update(_resolve_section(section_payload))
        return _snapshot_from(fields)

    def _read_section(self, payload: SectionPayload) -> Dict[str, Any]:
        cursor = self._cursor.get(payload.section)
        value: Optional[Dict[str, Any]] = None
        if cursor is not None:
            at, at_value = cursor
            links = []
            node: Optional[SectionPayload] = payload
            while node is not None and node is not at and not node.full:
                links.append(node)
                node = node.base
            if node is at:
                value = at_value
                for link in reversed(links):
                    value = _apply_section_delta(
                        link.section, value,
                        get_codec(link.codec_id).decode(link.data),
                        persistent=True)
        if value is None:
            value = _resolve_section(payload)
        self._cursor[payload.section] = (payload, value)
        return value


class SnapshotEncoder:
    """Per-process capture pipeline with incremental section encoding.

    One encoder serves all of a process's captures (volatile and
    stable, any codec): it remembers, per delta-capable section, the
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
    def encode_snapshot(self, snapshot: Any,
                        codec: Union[str, Codec, None] = None
                        ) -> SnapshotPayload:
        """Encode one capture, emitting delta sections where possible."""
        chosen = get_codec(codec)
        sections = split_sections(snapshot)
        if not sections:
            return encode_full(snapshot, chosen)
        payloads = []
        for name, fields in sections.items():
            if self.incremental and name == "journals":
                payloads.append(self._encode_journals(fields, chosen))
            elif self.incremental and name == "msg_log":
                payloads.append(self._encode_log(fields, chosen))
            else:
                data, nbytes = encode_value(fields, chosen)
                payloads.append(SectionPayload(
                    section=name, codec_id=chosen.codec_id,
                    data=data, nbytes=nbytes))
                self._bump(self.full_encodes, name)
        return SnapshotPayload(sections=tuple(payloads))

    # ------------------------------------------------------------------
    def _encode_journals(self, fields: Dict[str, Any],
                         codec: Codec) -> SectionPayload:
        tip = self._usable_tip("journals")
        if tip is not None and set(self._journal_baselines) == set(fields):
            delta_value = {
                name: journal_delta(journal,
                                    self._journal_baselines[name]).pack()
                for name, journal in fields.items()}
            payload = self._delta_payload("journals", delta_value, codec, tip)
        else:
            payload = self._full_payload("journals", fields, codec)
        self._journal_baselines = {name: JournalBaseline.of(journal)
                                   for name, journal in fields.items()}
        self._tips["journals"] = payload
        return payload

    def _encode_log(self, fields: Dict[str, Any],
                    codec: Codec) -> SectionPayload:
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
            payload = self._delta_payload("msg_log", delta_value, codec, tip)
        else:
            payload = self._full_payload("msg_log", fields, codec)
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

    def _full_payload(self, section: str, value: Any,
                      codec: Codec) -> SectionPayload:
        data, nbytes = encode_value(value, codec)
        self._bump(self.full_encodes, section)
        return SectionPayload(section=section, codec_id=codec.codec_id,
                              data=data, nbytes=nbytes)

    def _delta_payload(self, section: str, value: Any, codec: Codec,
                       tip: SectionPayload) -> SectionPayload:
        data, nbytes = encode_value(value, codec)
        self._bump(self.delta_encodes, section)
        return SectionPayload(section=section, codec_id=codec.codec_id,
                              data=data, nbytes=nbytes, full=False,
                              base=tip, depth=tip.depth + 1)

    @staticmethod
    def _bump(counter: Dict[str, int], key: str) -> None:
        counter[key] = counter.get(key, 0) + 1
