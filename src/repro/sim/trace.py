"""Structured trace recording.

Every interesting protocol action — checkpoint establishment, blocking
window boundaries, acceptance tests, message sends/deliveries,
recoveries, faults — is recorded as a :class:`TraceRecord`.  The
scenario reproductions of the paper's figures are assertions over these
traces, and the figure benches render them as timelines.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..types import ProcessId


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """A single trace entry.

    ``category`` is a dotted topic such as ``"checkpoint.volatile"``,
    ``"checkpoint.stable"``, ``"blocking.start"``, ``"at.pass"``,
    ``"recovery.software"``, ``"fault.crash"``; ``data`` carries
    category-specific fields.
    """

    time: float
    category: str
    process: Optional[ProcessId]
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)

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
    """

    def __init__(self, enabled: bool = True,
                 categories: Optional[Iterable[str]] = None) -> None:
        self.enabled = enabled
        self._prefixes: Optional[tuple] = (tuple(categories)
                                           if categories is not None else None)
        self._records: List[TraceRecord] = []
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def subscribe(self, listener: Callable[[TraceRecord], None]
                  ) -> Callable[[], None]:
        """Register a callback invoked synchronously for every *kept*
        record (after the enabled/category filter).  Returns an
        unsubscribe function.

        This is the hook the online auditor (:mod:`repro.audit`) uses
        to run invariant checks at protocol events while the simulation
        is still running; listeners may raise to fail fast.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            self.unsubscribe(listener)
        return unsubscribe

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Detach ``listener`` (a no-op if it is not subscribed).

        Long-lived subscribers (the online auditor) call this with the
        listener itself rather than holding the closure returned by
        :meth:`subscribe`, so they stay picklable for warm-start
        images."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

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
        rec = TraceRecord(time=time, category=category,
                          process=process, data=data)
        self._records.append(rec)
        if self._listeners:
            for listener in list(self._listeners):
                listener(rec)

    # ------------------------------------------------------------------
    def records(self, category: Optional[str] = None,
                process: Optional[ProcessId] = None,
                since: Optional[float] = None,
                until: Optional[float] = None) -> List[TraceRecord]:
        """Filtered view of the trace (category is a prefix match)."""
        out = []
        for rec in self._records:
            if not rec.matches(category, process):
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            out.append(rec)
        return out

    def last(self, category: Optional[str] = None,
             process: Optional[ProcessId] = None) -> Optional[TraceRecord]:
        """Most recent matching record, or ``None``."""
        for rec in reversed(self._records):
            if rec.matches(category, process):
                return rec
        return None

    def count(self, category: Optional[str] = None,
              process: Optional[ProcessId] = None) -> int:
        """Number of matching records."""
        return sum(1 for rec in self._records if rec.matches(category, process))

    def categories(self) -> List[str]:
        """Sorted distinct categories present in the trace."""
        return sorted({rec.category for rec in self._records})

    def timeline(self, categories: Iterable[str],
                 formatter: Optional[Callable[[TraceRecord], str]] = None) -> List[str]:
        """Human-readable timeline lines for the given category prefixes."""
        prefixes = tuple(categories)
        fmt = formatter or self._default_format
        lines = []
        for rec in self._records:
            if any(rec.category.startswith(p) for p in prefixes):
                lines.append(fmt(rec))
        return lines

    def clear(self) -> None:
        """Drop every record kept so far (listeners stay subscribed)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @staticmethod
    def _default_format(rec: TraceRecord) -> str:
        who = f" {rec.process}" if rec.process else ""
        extras = " ".join(f"{k}={v}" for k, v in sorted(rec.data.items()))
        return f"t={rec.time:10.4f}{who:>8} {rec.category:24s} {extras}"
