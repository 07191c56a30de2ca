"""Application layer: deterministic components, versions, workload,
acceptance tests and fault injection."""

from .acceptance import AcceptanceTest, AcceptanceTestConfig
from .component import ApplicationComponent, AppState, Payload
from .faults import (
    HardwareFaultInjector,
    HardwareFaultPlan,
    SoftwareFaultInjector,
    SoftwareFaultPlan,
)
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
    "HardwareFaultInjector",
    "HardwareFaultPlan",
    "HighConfidenceVersion",
    "LowConfidenceVersion",
    "Payload",
    "SoftwareFaultInjector",
    "SoftwareFaultPlan",
    "SoftwareVersion",
    "WorkloadConfig",
    "WorkloadDriver",
    "generate_actions",
]
