"""Application layer: deterministic components, versions, workload,
acceptance tests and fault plans."""

from .acceptance import AcceptanceTest, AcceptanceTestConfig
from .component import ApplicationComponent, AppState, Payload
from .faults import HardwareFaultPlan, SoftwareFaultPlan
from .versions import HighConfidenceVersion, LowConfidenceVersion, SoftwareVersion
from .workload import (
    Action,
    ActionKind,
    WorkloadConfig,
    WorkloadDriver,
    generate_actions,
)

__all__ = [
    "AcceptanceTest",
    "AcceptanceTestConfig",
    "Action",
    "ActionKind",
    "ApplicationComponent",
    "AppState",
    "HardwareFaultPlan",
    "HighConfidenceVersion",
    "LowConfidenceVersion",
    "Payload",
    "SoftwareFaultPlan",
    "SoftwareVersion",
    "WorkloadConfig",
    "WorkloadDriver",
    "generate_actions",
]
