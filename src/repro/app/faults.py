"""Fault plans.

Two fault classes drive every experiment in the paper:

* **Software design faults** — a latent defect in the low-confidence
  version that activates at an injected time (and may deactivate again,
  modelling an input-dependent bug).  Activation flips
  :attr:`~repro.app.versions.LowConfidenceVersion.fault_active`; the
  defect lives in code, so checkpoint rollback does not clear it.
* **Hardware faults** — fail-stop node crashes with a repair delay,
  after which the node restarts and the hardware-recovery procedure
  runs.

Each class is one frozen, serializable record: the same value is armed
on a system (:meth:`~repro.coordination.scheme.System.inject_software_fault`,
:meth:`~repro.coordination.scheme.System.inject_crash`), carried by an
audit :class:`~repro.audit.schedule.FaultSchedule` and written to its
replayable JSON artifact.  A malformed plan is rejected when it is
built or loaded.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError


def _field(data: Dict, name: str, convert: Callable, default=...):
    """``data[name]`` through ``convert``; a missing or malformed field
    raises :class:`ConfigurationError` naming it."""
    value = data.get(name, default) if isinstance(data, dict) else ...
    if value is ...:
        raise ConfigurationError(f"fault record lacks {name!r}: {data!r}")
    if value is None and default is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"fault record field {name!r} is not a "
                                 f"number: {value!r}") from None


@dataclasses.dataclass(frozen=True)
class SoftwareFaultPlan:
    """When the low-confidence version's defect manifests.

    ``activate_at`` — true time of activation; ``deactivate_at`` — if
    set, the defect stops manifesting then (a window of bad inputs).
    ``component`` — which guarded component's low-confidence version is
    defective (1 in the paper's single-component shape).
    """

    activate_at: float
    deactivate_at: Optional[float] = None
    component: int = 1

    def __post_init__(self) -> None:
        if self.activate_at < 0:
            raise ConfigurationError(f"activate_at must be >= 0: {self}")
        if self.deactivate_at is not None and self.deactivate_at <= self.activate_at:
            raise ConfigurationError(f"deactivate_at must follow activate_at: {self}")

    def to_dict(self) -> Dict:
        data = {"activate_at": self.activate_at,
                "deactivate_at": self.deactivate_at}
        if self.component != 1:
            # Omitted at the default so pre-topology artifacts replay
            # (and hash) identically.
            data["component"] = self.component
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SoftwareFaultPlan":
        return cls(activate_at=_field(data, "activate_at", float),
                   deactivate_at=_field(data, "deactivate_at", float, None),
                   component=_field(data, "component", int, 1))


@dataclasses.dataclass(frozen=True)
class HardwareFaultPlan:
    """A node crash at ``crash_at`` repaired after ``repair_time``."""

    node_id: str
    crash_at: float
    repair_time: float = 1.0

    def __post_init__(self) -> None:
        if self.crash_at < 0 or self.repair_time < 0:
            raise ConfigurationError(f"invalid hardware fault plan: {self}")

    def to_dict(self) -> Dict:
        return {"node_id": self.node_id, "crash_at": self.crash_at,
                "repair_time": self.repair_time}

    @classmethod
    def from_dict(cls, data: Dict) -> "HardwareFaultPlan":
        # Artifacts written without a repair time mean the audit's 2 s.
        return cls(node_id=_field(data, "node_id", str),
                   crash_at=_field(data, "crash_at", float),
                   repair_time=_field(data, "repair_time", float, 2.0))
