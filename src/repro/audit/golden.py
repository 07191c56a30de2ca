"""Golden-trace fingerprints of the Fig. 6 coordination cases.

Each golden case is one deterministic coordinated run — fault-free,
crashed, software-faulted, coincident, and clock-skewed variants chosen
so the six Fig. 6 checkpoint-content situations all appear — reduced to
a canonical line-per-record text form and hashed.  The regression test
pins the hashes: any change to protocol event order, to checkpoint
content decisions, or to the determinism machinery (seeded RNG streams,
per-run message ids, worker-independent campaign execution) shows up as
a digest mismatch long before it would corrupt a statistic.

The canonical form keeps only protocol-meaningful fields (time,
category, process, and the data entries with stable scalar values), so
the digests are insensitive to incidental additions elsewhere in the
trace vocabulary but pinned hard on everything the paper's figures are
assertions over.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from ..app.faults import HardwareFaultPlan, SoftwareFaultPlan
from .config import AuditConfig
from .schedule import FaultSchedule

#: Trace categories included in the canonical form — the protocol
#: events the paper's figures are drawn from.
GOLDEN_CATEGORIES = ("tb.establish", "blocking.", "recovery.",
                     "confidence.", "fault.", "at.")

#: The campaign configuration every golden case runs under.
GOLDEN_CONFIG = AuditConfig(scheme="coordinated", seed=29, schedules=6,
                            horizon=240.0, tb_interval=20.0,
                            w1_internal=0.1, w1_external=0.05,
                            w2_internal=0.08, w2_external=0.04)


def golden_schedules() -> List[FaultSchedule]:
    """The six pinned Fig. 6-case schedules, in canonical order."""
    seeds = {name: 1000 + i for i, name in enumerate(
        ("clean", "crash-peer", "crash-active", "software",
         "coincident", "skew"))}
    return [
        # (a)/(c)/(d): the fault-free run crosses many establishments
        # whose dirty-bit configurations cover the non-swap cases.
        FaultSchedule(label="fig6:clean", system_seed=seeds["clean"],
                      origin="golden"),
        # (e)-shaped: a crash of the peer's node forces a hardware
        # recovery line between establishments.
        FaultSchedule(label="fig6:crash-peer", system_seed=seeds["crash-peer"],
                      crashes=(HardwareFaultPlan("N2", 95.0, 2.0),),
                      origin="golden"),
        # ... and of the active's node, the other rollback topology.
        FaultSchedule(label="fig6:crash-active",
                      system_seed=seeds["crash-active"],
                      crashes=(HardwareFaultPlan("N1a", 115.0, 2.0),),
                      origin="golden"),
        # (f)-shaped: a software fault makes an acceptance test fail and
        # the shadow take over mid-campaign.
        FaultSchedule(label="fig6:software", system_seed=seeds["software"],
                      software=(SoftwareFaultPlan(activate_at=80.0),),
                      origin="golden"),
        # Coincident software + hardware fault (the deferred-takeover
        # path).
        FaultSchedule(label="fig6:coincident", system_seed=seeds["coincident"],
                      software=(SoftwareFaultPlan(activate_at=90.0),),
                      crashes=(HardwareFaultPlan("N1b", 90.5, 2.0),),
                      origin="golden"),
        # Clock-skew extreme: the same protocol under the widest
        # deviation the model admits.
        FaultSchedule(label="fig6:skew", system_seed=seeds["skew"],
                      crashes=(HardwareFaultPlan("N2", 120.0, 2.0),),
                      overrides=(("clock_delta", 0.5),), origin="golden"),
    ]


def _canonical_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def canonical_trace_lines(system) -> List[str]:
    """The run's protocol trace in canonical text form."""
    lines = []
    for rec in system.trace.records():
        if not rec.category.startswith(GOLDEN_CATEGORIES):
            continue
        data = ",".join(f"{k}={_canonical_value(v)}"
                        for k, v in sorted(rec.data.items()))
        lines.append(f"{rec.time:.6f} {rec.category} "
                     f"{rec.process or '-'} {data}")
    return lines


def trace_digest(lines: List[str]) -> str:
    """sha256 over the canonical lines (the pinned fingerprint)."""
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_golden_case(item: Tuple[Dict, Dict]) -> Dict:
    """Worker: run one golden schedule, return its digest and size.

    Module-level and dict-in/dict-out so
    :func:`repro.parallel.parallel_map` can ship it to worker processes
    — the regression test uses that to assert the digests are identical
    no matter where the run executes.
    """
    config_dict, schedule_dict = item
    config = AuditConfig.from_dict(config_dict)
    schedule = FaultSchedule.from_dict(schedule_dict)
    from .campaign import build_audit_system
    system = build_audit_system(config, schedule)
    system.run()
    lines = canonical_trace_lines(system)
    return {"label": schedule.label, "digest": trace_digest(lines),
            "records": len(lines)}


def golden_digests(workers=None) -> Dict[str, str]:
    """Digest every golden case, optionally across worker processes."""
    from ..parallel import parallel_map
    config_dict = GOLDEN_CONFIG.to_dict()
    items = [(config_dict, sched.to_dict()) for sched in golden_schedules()]
    results = parallel_map(run_golden_case, items, workers=workers)
    return {res["label"]: res["digest"] for res in results}
