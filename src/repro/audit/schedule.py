"""Adversarial fault/timing schedules.

A :class:`FaultSchedule` is the unit of work of an audit campaign: a
named, fully serializable description of *when the world misbehaves* —
software-fault activation windows, node crashes, and optional timing
overrides (clock-skew extremes) — that can be armed on any built
:class:`~repro.coordination.scheme.System` and replayed bit-for-bit
from its JSON form.  Schedules carry their own ``system_seed`` so a
shrunk or archived schedule reproduces the exact run that violated.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple

from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from ..errors import ConfigurationError

#: Node ids of the paper's three-process system, in role order.
SYSTEM_NODES = ("N1a", "N1b", "N2")

#: Timing-override keys a schedule may carry (applied to the
#: :class:`~repro.coordination.scheme.SystemConfig` at build time).
TIMING_OVERRIDE_KEYS = ("clock_delta", "clock_rho", "tb_interval")


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """One adversarial schedule: faults plus timing overrides.

    ``label`` names the schedule inside its campaign (and appears in
    reports and artifacts); ``origin`` says how it was produced
    (``"boundary"`` — systematic enumeration from a reference timeline,
    ``"random"`` — seeded randomized generation, ``"shrunk"`` — output
    of the delta-debugging shrinker, ``"replay"`` — loaded from an
    artifact).  ``system_seed`` seeds the system the schedule runs
    against — it is part of the schedule precisely so that shrinking
    and replay reproduce the identical run.
    """

    label: str
    system_seed: int
    software: Tuple[SoftwareFaultPlan, ...] = ()
    crashes: Tuple[HardwareFaultPlan, ...] = ()
    #: Optional timing overrides (see :data:`TIMING_OVERRIDE_KEYS`).
    overrides: Tuple[Tuple[str, float], ...] = ()
    origin: str = "random"

    def __post_init__(self) -> None:
        for key, _value in self.overrides:
            if key not in TIMING_OVERRIDE_KEYS:
                raise ConfigurationError(
                    f"unknown timing override {key!r} in schedule "
                    f"{self.label!r} (known: {TIMING_OVERRIDE_KEYS})")

    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        """Total number of injected faults."""
        return len(self.software) + len(self.crashes)

    def override_map(self) -> Dict[str, float]:
        """The timing overrides as a dict."""
        return dict(self.overrides)

    def arm(self, system) -> None:
        """Arm every fault of this schedule on a built system."""
        for plan in self.software:
            system.inject_software_fault(plan)
        for plan in self.crashes:
            system.inject_crash(plan)

    def with_faults(self, software: Tuple[SoftwareFaultPlan, ...],
                    crashes: Tuple[HardwareFaultPlan, ...],
                    origin: Optional[str] = None) -> "FaultSchedule":
        """Same schedule, different fault set (the shrinker's move)."""
        return dataclasses.replace(self, software=tuple(software),
                                   crashes=tuple(crashes),
                                   origin=origin or self.origin)

    def describe(self) -> str:
        """One-line human summary."""
        parts: List[str] = []
        for plan in self.software:
            window = (f"..{plan.deactivate_at:.2f}"
                      if plan.deactivate_at is not None else "")
            comp = f"[c{plan.component}]" if plan.component != 1 else ""
            parts.append(f"sw{comp}@{plan.activate_at:.2f}{window}")
        for plan in self.crashes:
            parts.append(f"crash:{plan.node_id}@{plan.crash_at:.2f}"
                         f"+{plan.repair_time:.1f}")
        for key, value in self.overrides:
            parts.append(f"{key}={value:g}")
        return f"{self.label}[{' '.join(parts) or 'fault-free'}]"

    # ------------------------------------------------------------------
    # serialization (the replayable-artifact format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "system_seed": self.system_seed,
            "software": [s.to_dict() for s in self.software],
            "crashes": [c.to_dict() for c in self.crashes],
            "overrides": {k: v for k, v in self.overrides},
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSchedule":
        return cls(
            label=str(data["label"]),
            system_seed=int(data["system_seed"]),
            software=tuple(SoftwareFaultPlan.from_dict(s)
                           for s in data.get("software", ())),
            crashes=tuple(HardwareFaultPlan.from_dict(c)
                          for c in data.get("crashes", ())),
            overrides=tuple(sorted(
                (str(k), float(v))
                for k, v in (data.get("overrides") or {}).items())),
            origin=str(data.get("origin", "replay")),
        )

    def to_json(self) -> str:
        """Compact canonical JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True)
