"""Campaign configuration for the adversarial auditor.

:class:`AuditConfig` pins everything a worker process needs to rebuild
and audit one schedule: the scheme under test, the base seed, the
simulated horizon and TB interval, the workload rates, the generator's
fault-count budgets, and (for mutation testing) the name of a planted
protocol bug.  The defaults were tuned so one schedule simulates in a
few tens of milliseconds while still exercising many establishment
epochs — the shape that lets ``repro audit`` push through thousands of
schedules per campaign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional

from ..app.workload import WorkloadConfig
from ..coordination.scheme import Scheme, SystemConfig
from ..errors import ConfigurationError
from ..sim.clock import ClockConfig
from ..tb.blocking import TbConfig
from .schedule import FaultSchedule

#: Trace categories the auditor needs; everything else is filtered at
#: the recorder so audited runs stay fast.
AUDIT_TRACE_CATEGORIES = (
    "tb.establish",
    "blocking.",
    "recovery.",
    "confidence.",
    "fault.",
    "at.",
    "resync",
)

#: Schemes an audit campaign may target (MDCD_ONLY / WRITE_THROUGH have
#: no TB establishments, so the auditor's hooks would never fire).
AUDITABLE_SCHEMES = (Scheme.NAIVE, Scheme.COORDINATED,
                     Scheme.COORDINATED_NO_SWAP)


@dataclasses.dataclass(frozen=True)
class AuditConfig:
    """Everything one audit campaign (or one replayed schedule) needs."""

    scheme: str = "coordinated"
    seed: int = 0
    schedules: int = 120
    horizon: float = 600.0
    tb_interval: float = 30.0
    stable_history: int = 8
    #: Workload rates (internal / external / step, events per second).
    w1_internal: float = 0.08
    w1_external: float = 0.01
    w2_internal: float = 0.04
    w2_external: float = 0.005
    step_rate: float = 0.02
    #: Generator budgets: at most this many faults of each kind per
    #: random schedule.
    max_software: int = 2
    max_crashes: int = 3
    #: Fraction of a campaign drawn from the systematic boundary
    #: enumeration (the rest is seeded-random).
    boundary_fraction: float = 0.5
    #: Run the ground-truth (contamination) oracles too; turning this
    #: off restricts the audit to observable-state invariants.
    include_ground_truth: bool = True
    #: Name of a planted protocol bug (see :mod:`repro.audit.mutations`)
    #: or ``None`` for the unmutated protocol.
    mutation: Optional[str] = None
    #: Membership spec the audited systems are built with (``"paper"``
    #: or ``"NxK"``/``"NxK+U"``; see :mod:`repro.topology`).  Omitted
    #: from :meth:`to_dict` when left at the default so historical
    #: campaign fingerprints — and the warm-start caches and golden
    #: digests keyed by them — are unchanged.
    topology: str = "paper"
    #: Shard size for parallel flock campaigns: prefix groups larger
    #: than this split across workers, one resident template per shard.
    #: Pure execution strategy — findings, traces, and shrink results
    #: are bit-for-bit identical — so it is excluded from
    #: :meth:`to_dict` and the campaign fingerprint.
    fork_batch: int = 32

    def __post_init__(self) -> None:
        from ..topology.model import parse_topology
        try:
            parse_topology(self.topology)
        except ValueError as exc:
            raise ConfigurationError(str(exc))
        if self.scheme_enum not in AUDITABLE_SCHEMES:
            raise ConfigurationError(
                f"scheme {self.scheme!r} is not auditable "
                f"(choose from {[s.value for s in AUDITABLE_SCHEMES]})")
        if self.schedules < 1:
            raise ConfigurationError("schedules must be >= 1")
        if self.horizon <= 2.0 * self.tb_interval:
            raise ConfigurationError(
                "horizon must cover at least two TB intervals")
        if not 0.0 <= self.boundary_fraction <= 1.0:
            raise ConfigurationError("boundary_fraction must be in [0, 1]")
        if self.fork_batch < 1:
            raise ConfigurationError("fork_batch must be >= 1")

    # ------------------------------------------------------------------
    @property
    def scheme_enum(self) -> Scheme:
        """The scheme as the coordination-layer enum."""
        return Scheme(self.scheme)

    def system_config(self, schedule: FaultSchedule) -> SystemConfig:
        """The :class:`SystemConfig` for one schedule of this campaign
        (the schedule's seed and timing overrides applied)."""
        overrides = schedule.override_map()
        clock = ClockConfig(
            delta=overrides.get("clock_delta", ClockConfig().delta),
            rho=overrides.get("clock_rho", ClockConfig().rho))
        return SystemConfig(
            scheme=self.scheme_enum,
            seed=schedule.system_seed,
            horizon=self.horizon,
            clock=clock,
            tb=TbConfig(interval=overrides.get("tb_interval",
                                               self.tb_interval)),
            workload1=WorkloadConfig(internal_rate=self.w1_internal,
                                     external_rate=self.w1_external,
                                     step_rate=self.step_rate),
            workload2=WorkloadConfig(internal_rate=self.w2_internal,
                                     external_rate=self.w2_external,
                                     step_rate=self.step_rate),
            trace_categories=AUDIT_TRACE_CATEGORIES,
            stable_history=self.stable_history,
            topology=self.topology)

    def fingerprint(self) -> str:
        """Short stable digest of the campaign parameters (cache keys,
        artifact provenance); computed once per (frozen) instance and
        remembered beside the fields, out of ``to_dict``, ``==``,
        ``dataclasses.replace`` and (:meth:`__getstate__`) pickles."""
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            payload = json.dumps(self.to_dict(), sort_keys=True).encode()
            digest = hashlib.sha256(payload).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    def __getstate__(self) -> Dict:
        return {name: value for name, value in self.__dict__.items()
                if name != "_fingerprint"}

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        data = dataclasses.asdict(self)
        if data.get("topology") == "paper":
            # Default topology is omitted so pre-topology fingerprints
            # (pinned goldens, warm-start cache keys) stay stable.
            del data["topology"]
        # Execution strategy never enters a campaign's identity: the
        # same schedules produce the same results however they are
        # sharded, and fingerprints key caches and golden digests.
        data.pop("fork_batch", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "AuditConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
