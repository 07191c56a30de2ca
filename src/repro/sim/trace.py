"""Structured trace recording.

Every interesting protocol action — checkpoint establishment, blocking
window boundaries, acceptance tests, message sends/deliveries,
recoveries, faults — is recorded as a :class:`TraceRecord`.  The
scenario reproductions of the paper's figures are assertions over these
traces, and the figure benches render them as timelines.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Collection, Dict, Iterable, List,
                    Optional, Tuple)

from ..types import ProcessId


class TraceRecord:
    """A single trace entry.

    ``category`` is a dotted topic such as ``"checkpoint.volatile"``,
    ``"checkpoint.stable"``, ``"blocking.start"``, ``"at.pass"``,
    ``"recovery.software"``, ``"fault.crash"``; ``data`` carries
    category-specific fields.

    Read-only by contract: nothing writes a field after construction
    (warm-start images share records between forks on that promise).
    A ``__slots__`` class, not a frozen dataclass, because a campaign
    builds one per protocol action and flock dumps pickle them: the
    plain class builds several times faster, and :meth:`__reduce__`
    (four values, not a state dict) pickles smaller and unpickles
    faster.
    """

    __slots__ = ("time", "category", "process", "data")

    def __init__(self, time: float, category: str,
                 process: Optional[ProcessId],
                 data: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.category = category
        self.process = process
        self.data = {} if data is None else data

    def __reduce__(self):
        return (TraceRecord,
                (self.time, self.category, self.process, self.data))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return (self.time == other.time and self.category == other.category
                and self.process == other.process and self.data == other.data)

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, category={self.category!r}, "
                f"process={self.process!r}, data={self.data!r})")

    def matches(self, category: Optional[str] = None,
                process: Optional[ProcessId] = None) -> bool:
        """Prefix-match on category, exact match on process."""
        if category is not None and not self.category.startswith(category):
            return False
        if process is not None and self.process != process:
            return False
        return True


class TraceRecorder:
    """Append-only trace sink with simple query helpers.

    ``categories`` restricts recording to categories matching any of
    the given prefixes — campaign runners that only assert over a
    narrow slice of the trace (say ``blocking.``) use it to skip the
    per-record allocation everywhere else.  Hot call sites should guard
    with :attr:`enabled` (or :meth:`wants` when their category may be
    filtered) before building keyword arguments, so a disabled recorder
    costs one attribute read and nothing else.

    Listeners (:meth:`subscribe`) hear kept records synchronously.  A
    listener subscribes to the exact category names it acts on, or to
    everything: the recorder keeps one ``(names, listener)`` tuple and
    hands a record only to the listeners whose names hold its
    category, so the online auditor — which acts on five categories —
    is not called for the thousands of other records a run keeps.

    Records are frozen *segments* (tuples, shared by identity between a
    fork template and its forks; see :meth:`freeze`) then a private
    *tail* list; queries read both, in time order.
    """

    def __init__(self, enabled: bool = True,
                 categories: Optional[Iterable[str]] = None) -> None:
        self.enabled = enabled
        self._prefixes: Optional[tuple] = (tuple(categories)
                                           if categories is not None else None)
        self._segments: Tuple[Tuple[TraceRecord, ...], ...] = ()
        self._tail: List[TraceRecord] = []
        #: ``(names, listener)`` pairs in subscription order; ``names``
        #: is a frozenset of categories, ``None`` for every record.
        #: Replaced, never mutated, so a listener may unsubscribe while
        #: a record is being dispatched.
        self._listeners: Tuple[Tuple[Optional[frozenset],
                                     Callable[[TraceRecord], None]], ...] = ()

    def subscribe(self, listener: Callable[[TraceRecord], None],
                  names: Optional[Collection[str]] = None
                  ) -> Callable[[], None]:
        """Register a callback invoked synchronously for every *kept*
        record (after the enabled/category filter) whose category is
        one of ``names`` — exact names, not prefixes; ``None`` means
        every record.  Returns an unsubscribe function.

        This is the hook the online auditor (:mod:`repro.audit`) uses
        to run invariant checks at protocol events while the simulation
        is still running; listeners may raise to fail fast.
        """
        self._listeners += (
            (None if names is None else frozenset(names), listener),)

        def unsubscribe() -> None:
            self.unsubscribe(listener)
        return unsubscribe

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Detach ``listener`` (a no-op if it is not subscribed).

        Long-lived subscribers (the online auditor) call this with the
        listener itself rather than holding the closure returned by
        :meth:`subscribe`, so they stay picklable for warm-start
        images."""
        self._listeners = tuple(pair for pair in self._listeners
                                if pair[1] != listener)

    def wants(self, category: str) -> bool:
        """Whether a record in ``category`` would actually be kept —
        the cheap pre-flight hot paths use to skip argument building."""
        if not self.enabled:
            return False
        prefixes = self._prefixes
        return prefixes is None or category.startswith(prefixes)

    def record(self, time: float, category: str,
               process: Optional[ProcessId] = None, **data: Any) -> None:
        """Append a record (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        prefixes = self._prefixes
        if prefixes is not None and not category.startswith(prefixes):
            return
        rec = TraceRecord(time, category, process, data)
        self._tail.append(rec)
        for names, listener in self._listeners:
            if names is None or category in names:
                listener(rec)

    def freeze(self) -> Tuple[Tuple[TraceRecord, ...], ...]:
        """Seal the tail (if any) into a new segment, replacing the
        segments tuple, never extending it; return every segment."""
        if self._tail:
            self._segments += (tuple(self._tail),)
            self._tail.clear()
        return self._segments

    # ------------------------------------------------------------------
    def records(self, category: Optional[str] = None,
                process: Optional[ProcessId] = None,
                since: Optional[float] = None,
                until: Optional[float] = None) -> List[TraceRecord]:
        """Filtered view of the trace (category is a prefix match)."""
        return [rec for rec in self if rec.matches(category, process)
                and (since is None or rec.time >= since)
                and (until is None or rec.time <= until)]

    def last(self, category: Optional[str] = None,
             process: Optional[ProcessId] = None) -> Optional[TraceRecord]:
        """Most recent matching record, or ``None``."""
        parts = (self._tail, *reversed(self._segments))
        return next((rec for part in parts for rec in reversed(part)
                     if rec.matches(category, process)), None)

    def count(self, category: Optional[str] = None,
              process: Optional[ProcessId] = None) -> int:
        """Number of matching records."""
        return sum(1 for rec in self if rec.matches(category, process))

    def clear(self) -> None:
        """Drop every record (listeners stay); shared segments are let go."""
        self._segments = ()
        self._tail.clear()

    def __len__(self) -> int:
        return sum(map(len, self._segments)) + len(self._tail)

    def __iter__(self):
        return itertools.chain(*self._segments, self._tail)
