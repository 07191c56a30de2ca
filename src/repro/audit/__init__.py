"""Adversarial schedule exploration with online invariant auditing.

The audit subsystem turns the paper's Section 2.1 properties into a
continuously-enforced oracle: generate adversarial fault/timing
schedules (systematic boundary enumeration + seeded randomization),
run each one with the invariant checkers wired into the simulation's
protocol events, and shrink any violating schedule to a minimal,
replayable JSON counterexample.  Under the ``naive`` scheme this
machinery rediscovers the paper's Fig. 4 interference automatically;
under ``coordinated`` it demonstrates survival across thousands of
schedules.
"""

from .auditor import AuditFinding, OnlineAuditor, line_summary
from .campaign import (
    AuditReport,
    ScheduleRunner,
    artifact_schedules,
    audit_schedule,
    build_audit_system,
    execute_shard,
    format_audit_report,
    read_artifact,
    run_audit,
    write_artifact,
)
from .config import AUDIT_TRACE_CATEGORIES, AUDITABLE_SCHEMES, AuditConfig
from .generator import (
    ReferenceTimeline,
    boundary_schedules,
    generate_schedules,
    random_schedules,
    reference_timeline,
)
from .golden import (
    GOLDEN_CONFIG,
    canonical_trace_lines,
    golden_digests,
    golden_schedules,
    trace_digest,
)
from .mutations import (
    MUTATIONS,
    mutation_names,
    plant_mutation,
    sensitivity_config,
    sensitivity_schedules,
)
from .schedule import SYSTEM_NODES, FaultSchedule
from .shrink import ShrinkResult, shrink_schedule

__all__ = [
    "AUDITABLE_SCHEMES",
    "AUDIT_TRACE_CATEGORIES",
    "AuditConfig",
    "AuditFinding",
    "AuditReport",
    "FaultSchedule",
    "GOLDEN_CONFIG",
    "MUTATIONS",
    "OnlineAuditor",
    "ReferenceTimeline",
    "SYSTEM_NODES",
    "ScheduleRunner",
    "ShrinkResult",
    "artifact_schedules",
    "audit_schedule",
    "boundary_schedules",
    "build_audit_system",
    "canonical_trace_lines",
    "execute_shard",
    "format_audit_report",
    "generate_schedules",
    "golden_digests",
    "golden_schedules",
    "line_summary",
    "mutation_names",
    "plant_mutation",
    "random_schedules",
    "read_artifact",
    "reference_timeline",
    "run_audit",
    "sensitivity_config",
    "sensitivity_schedules",
    "shrink_schedule",
    "trace_digest",
    "write_artifact",
]
