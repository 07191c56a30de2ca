"""Planted protocol bugs for mutation-testing the auditor.

Each mutation re-introduces one of the failure modes the paper's
coordination exists to prevent, by disabling a single protocol action
on an otherwise-correct built system.  The mutation tests assert that
the online auditor flags every one of them — i.e. that the audit's
oracles are strong enough to notice each protocol obligation being
dropped.

Mutations are applied *after* :func:`~repro.coordination.scheme.build_system`
and before ``start()``; they only monkey-patch instance attributes of
the one system under test (the protocol sources stay untouched, and
`TbConfig`'s existing ablation flags are reused where they exist).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..app.faults import HardwareFaultPlan
from ..errors import ConfigurationError
from ..sim.rng import derive_seed
from ..topology.model import parse_topology
from .schedule import FaultSchedule


class _PseudoDirtySuppressor:
    """``set_pseudo_dirty`` wrapper that drops the ``<- 1`` arm.

    A callable class (not a closure) wrapping the original bound
    method, so mutated systems stay picklable — warm-start images
    capture the whole system object graph, planted bugs included.
    """

    def __init__(self, original) -> None:
        self.original = original

    def __call__(self, value: int, reason: str = "") -> None:
        if value == 1:
            return  # the planted bug: never mark the state suspect
        self.original(value, reason)


def _skip_pseudo_dirty(system) -> None:
    """Drop the ``pseudo_dirty_bit <- 1`` on internal sends (modified
    MDCD, Appendix A step A2): contaminated state then reaches stable
    storage as a ``current-state`` checkpoint claiming validation —
    caught by the pseudo-conservatism oracle."""
    for proc in system.process_list():
        if proc.is_guarded_active:
            engine = proc.software
            engine.set_pseudo_dirty = _PseudoDirtySuppressor(
                engine.set_pseudo_dirty)


def _drop_unacked_save(system) -> None:
    """Drop the unacknowledged-message set from TB checkpoints (the
    Neves-Fuchs protocol saves it so in-transit messages are re-sent
    after rollback): sent-but-unreceived messages in a stable line are
    then unrestorable — caught by the recoverability oracle."""
    for proc in system.process_list():
        engine = proc.hardware
        if engine is not None and hasattr(engine, "config"):
            engine.config = dataclasses.replace(engine.config,
                                                save_unacked=False)


def _skip_blocking(system) -> None:
    """Skip the TB blocking period (messages are sent while the local
    establishment is already underway): receivers record deliveries the
    sender's committing checkpoint has never sent — caught by the
    consistency (orphan-message) oracle."""
    for proc in system.process_list():
        engine = proc.hardware
        if engine is not None and hasattr(engine, "config"):
            engine.config = dataclasses.replace(engine.config,
                                                blocking_enabled=False)


#: name -> (apply(system), description) — the test-only knob registry.
MUTATIONS: Dict[str, Callable] = {
    "skip-pseudo-dirty": _skip_pseudo_dirty,
    "drop-unacked-save": _drop_unacked_save,
    "skip-blocking": _skip_blocking,
}


def mutation_names() -> list:
    """Registered mutation names, sorted."""
    return sorted(MUTATIONS)


def plant_mutation(system, name: str) -> None:
    """Apply the named planted bug to a built (not yet started) system."""
    try:
        apply = MUTATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mutation {name!r} (known: {mutation_names()})") from None
    apply(system)


# ----------------------------------------------------------------------
# the sensitivity campaign
# ----------------------------------------------------------------------
#: Number of schedules in one sensitivity campaign.
SENSITIVITY_SCHEDULES = 16


def sensitivity_config(mutation: Optional[str] = None,
                       scheme: str = "coordinated", seed: int = 7,
                       topology: str = "paper",
                       schedules: int = SENSITIVITY_SCHEDULES):
    """The campaign configuration under which every registered mutation
    is observably faulty.

    The default audit workload leaves processes *dirty* at nearly every
    establishment (volatile-copy contents), so the unacked-save and
    blocking machinery is rarely load-bearing and bugs in it go
    unnoticed.  This configuration raises the acceptance-test rate until
    validations land between establishments (current-state contents,
    live unacked sets) and shortens the TB interval so each run crosses
    many establishment epochs.
    """
    from .config import AuditConfig
    return AuditConfig(scheme=scheme, seed=seed, schedules=schedules,
                       horizon=400.0, tb_interval=10.0,
                       w1_internal=0.3, w1_external=0.2,
                       w2_internal=0.3, w2_external=0.2,
                       topology=topology, mutation=mutation)


def sensitivity_schedules(config) -> List[FaultSchedule]:
    """The clock-skew-extreme schedules of one sensitivity campaign.

    Every schedule maximizes the clock deviation (``clock_delta=0.5``,
    the widest skew the model admits — the regime where the blocking
    period and the saved unacked sets actually protect something); even
    indices add a crash of the membership's last node (a peer's: ``N2``
    in the paper's system), staggered across the run so recovery lines
    form at many different epochs.
    """
    node = parse_topology(config.topology).node_ids()[-1]
    out: List[FaultSchedule] = []
    for i in range(config.schedules):
        crashes = ((HardwareFaultPlan(node_id=node,
                                      crash_at=120.0 + 31.0 * (i % 6),
                                      repair_time=2.0),)
                   if i % 2 == 0 else ())
        out.append(FaultSchedule(
            label=f"mut:{i}",
            system_seed=derive_seed(config.seed, f"mut:{i}") % (2 ** 31),
            software=(), crashes=crashes,
            overrides=(("clock_delta", 0.5),), origin="mutation"))
    return out
