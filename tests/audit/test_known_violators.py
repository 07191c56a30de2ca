"""The coordinated scheme's known violators, swept cold, as a gate.

A cold ``coordinated`` seed sweep at horizon 600 — the paper membership
over campaign seeds 0–31 × 200 schedules, ``2x2+3`` over 0–31 × 40 —
must report *exactly* the violators on record (the leads pinned under
``tests/golden/counterexamples/``).  A change can neither add a violator
nor silently hide one: closing a lead shrinks the expected set here in
the same change that flips its pin.  Labels are stable here because the
campaign (seed, schedule count) is fixed; the schedule JSON stays the
regression artifact.
"""

import pytest

from repro.audit import AuditConfig, FaultSchedule, run_audit

pytestmark = [pytest.mark.audit, pytest.mark.slow]

#: (topology, schedules per campaign) of the sweep, seeds 0-31 each.
SWEEP = (("paper", 200), ("2x2+3", 40))

KNOWN_VIOLATORS = {
    ("paper", 11, "boundary:pre-at:7"),
    ("2x2+3", 16, "random:32"),
    ("2x2+3", 22, "random:32"),
}


def test_cold_sweep_finds_exactly_the_known_violators():
    found = set()
    for topology, schedules in SWEEP:
        for seed in range(32):
            report = run_audit(AuditConfig(scheme="coordinated", seed=seed,
                                           schedules=schedules, horizon=600.0,
                                           topology=topology), workers=2)
            assert not report.errors, (topology, seed, report.errors)
            found |= {(topology, seed,
                       FaultSchedule.from_dict(v["schedule"]).label)
                      for v in report.violations}
    assert found == KNOWN_VIOLATORS
