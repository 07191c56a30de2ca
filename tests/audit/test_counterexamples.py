"""The coordinated scheme's known counterexamples, pinned as schedules.

Each file under ``tests/golden/counterexamples/`` is one lead of
ROADMAP item 1: the campaign that found it, the campaign's
``AuditConfig``, the violating ``FaultSchedule`` itself (labels are not
stable across ``--schedules``, so a regression is its schedule JSON,
never a label) and the first finding on record.  Every lead replays
through a cold ``audit_schedule`` and is asserted *clean* — an expected
failure for as long as the file says ``"open": true``, and a strict
one: the fix that closes a lead turns its case into an unexpected pass,
so it has to flip its own pin to ``"open": false``, after which the
schedule is an ordinary regression test.  A ``<lead>.min.json`` beside a
lead is the same schema holding ``shrink_schedule``'s minimal form of
it (``found_by`` names the shrink call); it is collected the same way.
"""

import json
import pathlib

import pytest

from repro.audit import AuditConfig, FaultSchedule, audit_schedule

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "counterexamples"


def _cases():
    for path in sorted(GOLDEN.glob("*.json")):
        lead = json.loads(path.read_text())
        marks = [pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=f"open lead ({lead['found_by']})")
        ] if lead["open"] else []
        yield pytest.param(lead, id=path.stem, marks=marks)


@pytest.mark.audit
@pytest.mark.parametrize("lead", _cases())
def test_counterexample_is_clean(lead):
    findings = audit_schedule(AuditConfig.from_dict(lead["config"]),
                              FaultSchedule.from_dict(lead["schedule"]))
    assert [finding.describe() for finding in findings] == []
