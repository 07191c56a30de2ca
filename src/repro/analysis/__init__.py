"""Analysis: global-state capture, the paper's consistency /
recoverability invariants as executable checkers, and the closed-form
rollback model."""

from .dependability import (
    FaultLoad,
    goodput,
    goodput_comparison,
    loss_rate,
    measure_goodput,
)
from .global_state import (
    ProcessView,
    common_stable_line,
    live_line,
    live_view,
    stable_line,
    view_from_checkpoint,
)
from .invariants import (
    ORPHAN_MESSAGE,
    PSEUDO_CONTAMINATION,
    UNDETECTED_CONTAMINATION,
    UNRESTORABLE_MESSAGE,
    VALIDITY_MISMATCH,
    Violation,
    assert_line_ok,
    check_consistency,
    check_ground_truth,
    check_line,
    check_live_system,
    check_pseudo_conservatism,
    check_recoverability,
    check_system_line,
    summarize_violations,
)
from .model import (
    ModelParams,
    dirty_fraction,
    expected_rollback_coordinated,
    expected_rollback_write_through,
    improvement_factor,
    validation_rate,
)

__all__ = [
    "FaultLoad",
    "ModelParams",
    "ORPHAN_MESSAGE",
    "PSEUDO_CONTAMINATION",
    "ProcessView",
    "UNDETECTED_CONTAMINATION",
    "UNRESTORABLE_MESSAGE",
    "VALIDITY_MISMATCH",
    "Violation",
    "assert_line_ok",
    "check_consistency",
    "check_ground_truth",
    "check_line",
    "check_live_system",
    "check_pseudo_conservatism",
    "check_recoverability",
    "check_system_line",
    "common_stable_line",
    "dirty_fraction",
    "goodput",
    "goodput_comparison",
    "expected_rollback_coordinated",
    "expected_rollback_write_through",
    "improvement_factor",
    "live_line",
    "loss_rate",
    "measure_goodput",
    "live_view",
    "stable_line",
    "summarize_violations",
    "validation_rate",
    "view_from_checkpoint",
]
