"""Online invariant auditing: checkers wired into a running simulation.

The :class:`OnlineAuditor` subscribes to a system's
:class:`~repro.sim.trace.TraceRecorder` and runs the invariant checkers
of :mod:`repro.analysis.invariants` at every protocol event where the
paper's properties must hold:

* ``tb.establish.done`` — once *every* in-service process has committed
  a stable checkpoint for an epoch, that epoch's line is the hardware
  recovery line: it must be consistent, recoverable, and conservative.
* ``recovery.hardware.start`` — the exact line the coordinator picked
  to restore is checked before the rollback happens.
* ``recovery.hardware.done`` / ``recovery.software.done`` /
  ``confidence.clean`` — the live global state is checked at each
  recovery completion and each validation commit (with in-flight and
  buffered messages exempted).

Every failure is captured as an :class:`AuditFinding` carrying the
violations *and* a per-process summary of the offending global-state
line; in fail-fast mode the finding is also raised as
:class:`~repro.errors.AuditViolation`, aborting the simulation at the
first inconsistent instant.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..analysis.global_state import ProcessView, live_line, stable_line
from ..analysis.invariants import (
    Violation,
    check_live_system,
    check_system_line,
    summarize_violations,
)
from ..errors import AuditViolation
from ..snapshot import ChainReader
from ..types import ProcessId

#: Live-state hook categories: instants where the healthy protocol
#: guarantees a consistent live global state.
LIVE_HOOKS = ("recovery.hardware.done", "recovery.software.done",
              "confidence.clean")

#: How many epochs behind the newest commit a never-completed epoch is
#: kept pending before being abandoned (a crashed node may simply never
#: commit it).
PENDING_WINDOW = 4


def _view_summary(view: ProcessView) -> Dict:
    """Compact, JSON-safe digest of one process's view in a line."""
    mdcd = view.snapshot.mdcd
    return {
        "epoch": view.epoch,
        "kind": view.kind,
        "content": view.content,
        "taken_at": view.taken_at,
        "work_done": view.work_done,
        "dirty_bit": mdcd.dirty_bit,
        "pseudo_dirty_bit": mdcd.pseudo_dirty_bit,
        "truly_corrupt": view.truly_corrupt,
        "sent_records": len(view.snapshot.journal_sent),
        "recv_records": len(view.snapshot.journal_recv),
        "unacked": sorted(m.dedup_key for m in view.snapshot.unacked),
    }


def line_summary(line: Dict[ProcessId, ProcessView]) -> Dict[str, Dict]:
    """Per-process digest of a global-state line (finding attachment)."""
    return {str(pid): _view_summary(view) for pid, view in line.items()}


@dataclasses.dataclass
class AuditFinding:
    """One invariant failure observed during a run."""

    time: float
    hook: str
    epoch: Optional[int]
    violations: List[Violation]
    line: Dict[str, Dict] = dataclasses.field(default_factory=dict)

    def summary(self) -> Dict[str, int]:
        """Violation counts by kind."""
        return summarize_violations(self.violations)

    def to_dict(self) -> Dict:
        return {
            "time": self.time,
            "hook": self.hook,
            "epoch": self.epoch,
            "violations": [dataclasses.asdict(v) for v in self.violations],
            "line": self.line,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AuditFinding":
        return cls(
            time=float(data["time"]),
            hook=str(data["hook"]),
            epoch=(int(data["epoch"]) if data.get("epoch") is not None
                   else None),
            violations=[Violation(kind=v["kind"], detail=v["detail"],
                                  message_key=v.get("message_key"),
                                  process=v.get("process"))
                        for v in data.get("violations", ())],
            line=dict(data.get("line", {})))

    def describe(self) -> str:
        """One-line human summary."""
        counts = ", ".join(f"{kind}×{n}" for kind, n in
                           sorted(self.summary().items()))
        at = f"epoch {self.epoch}" if self.epoch is not None else "live state"
        return f"t={self.time:.3f} {self.hook} ({at}): {counts}"


class OnlineAuditor:
    """Runs the invariant checkers at protocol events of one system.

    Attach before ``system.run()``; call :meth:`finalize` after the run
    for the end-of-run oracles.  Findings accumulate in
    :attr:`findings`; with ``fail_fast`` the first finding raises
    :class:`~repro.errors.AuditViolation` (the finding is recorded
    first, so callers can catch and still read it).
    """

    def __init__(self, system, fail_fast: bool = False,
                 include_ground_truth: bool = True) -> None:
        self.system = system
        self.fail_fast = fail_fast
        self.include_ground_truth = include_ground_truth
        self.pseudo_conservatism = system.config.scheme.uses_modified_mdcd
        self.findings: List[AuditFinding] = []
        self.epochs_checked = 0
        self.live_checks = 0
        self._pending_epochs: set = set()
        self._checked_epochs: set = set()
        self._max_epoch_seen = -1
        #: One chain reader per process: consecutive stable lines decode
        #: only the delta links between them.  A cache, nothing more —
        #: kept out of pickles (images, flock dumps) and dropped at
        #: :meth:`finalize`.
        self._readers: Dict[ProcessId, ChainReader] = {}
        # Subscribe the bound method and remember it (not the closure
        # subscribe() returns) so auditors pickle into warm-start images.
        self._listener = self._on_record
        system.trace.subscribe(self._listener)
        self._finalized = False

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_readers"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._readers = {}

    # ------------------------------------------------------------------
    @property
    def violated(self) -> bool:
        """Whether any finding was recorded."""
        return bool(self.findings)

    def _report(self, finding: AuditFinding) -> None:
        self.findings.append(finding)
        if self.fail_fast:
            raise AuditViolation(
                f"audit failed: {finding.describe()}",
                violations=finding.violations, finding=finding)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _on_record(self, rec) -> None:
        if rec.category == "tb.establish.done":
            epoch = rec.data.get("epoch")
            if epoch is not None and epoch not in self._checked_epochs:
                self._pending_epochs.add(epoch)
                self._max_epoch_seen = max(self._max_epoch_seen, epoch)
            self._drain_pending(rec.time)
        elif rec.category == "recovery.hardware.start":
            epoch = rec.data.get("epoch")
            if epoch is not None:
                self._check_stable_epoch(rec.time, epoch,
                                         hook="recovery.hardware.start")
        elif rec.category in LIVE_HOOKS:
            self._check_live(rec.time, hook=rec.category)

    def _drain_pending(self, now: float) -> None:
        for epoch in sorted(self._pending_epochs):
            if self._line_complete(epoch):
                self._pending_epochs.discard(epoch)
                self._checked_epochs.add(epoch)
                self._check_stable_epoch(now, epoch,
                                         hook="tb.establish.done")
            elif epoch < self._max_epoch_seen - PENDING_WINDOW:
                # Abandoned: some process (crashed at the time) never
                # committed this epoch, and the system has moved on.
                self._pending_epochs.discard(epoch)

    def _line_complete(self, epoch: int) -> bool:
        for proc in self.system.process_list():
            if proc.deposed:
                continue
            if proc.node.stable.at_epoch(proc.process_id, epoch) is None:
                return False
        return True

    def _check_stable_epoch(self, now: float, epoch: int, hook: str) -> None:
        line = stable_line(self.system, epoch=epoch, readers=self._readers)
        if not line:
            return
        self.epochs_checked += 1
        violations = check_system_line(
            line, include_ground_truth=self.include_ground_truth,
            pseudo_conservatism=self.pseudo_conservatism,
            topology=self.system.topology)
        if violations:
            self._report(AuditFinding(
                time=now, hook=hook, epoch=epoch, violations=violations,
                line=line_summary(line)))

    def _check_live(self, now: float, hook: str) -> None:
        self.live_checks += 1
        violations = check_live_system(
            self.system, include_ground_truth=self.include_ground_truth)
        if violations:
            self._report(AuditFinding(
                time=now, hook=hook, epoch=None, violations=violations,
                line=line_summary(live_line(self.system))))

    # ------------------------------------------------------------------
    def finalize(self) -> List[AuditFinding]:
        """End-of-run oracles (final live state, any still-complete
        pending epochs); detaches the trace listener.  Idempotent."""
        if self._finalized:
            return self.findings
        self._finalized = True
        self.system.trace.unsubscribe(self._listener)
        self._listener = None  # a bound method of self: a cycle
        now = self.system.sim.now
        try:
            self._drain_pending(now)
            self._check_live(now, hook="end-of-run")
        finally:
            self._readers.clear()
        return self.findings

    def stats(self) -> Dict[str, int]:
        """Counters for reports."""
        return {"epochs_checked": self.epochs_checked,
                "live_checks": self.live_checks,
                "findings": len(self.findings)}
