"""Mutation tests: every planted protocol bug must be flagged.

Each registered mutation disables one protocol obligation on an
otherwise-correct system; the sensitivity campaign (high acceptance-test
rate, short TB interval, clock-skew-extreme schedules — the regime where
the unacked sets and the blocking period are actually load-bearing) must
flag every one of them while the unmutated control stays clean.  This is
the strength check on the audit's oracles: an oracle that misses a
deliberately-broken protocol would also miss a genuine regression.
"""

import pytest

from repro.audit import (
    mutation_names,
    plant_mutation,
    run_audit,
    sensitivity_config,
    sensitivity_schedules,
)
from repro.audit.campaign import build_audit_system
from repro.errors import ConfigurationError

pytestmark = pytest.mark.audit


def run_sensitivity(mutation):
    config = sensitivity_config(mutation=mutation)
    return run_audit(config, schedules=sensitivity_schedules(config))


@pytest.fixture(scope="module")
def control_report():
    return run_sensitivity(None)


class TestRegistry:
    def test_known_mutations(self):
        assert mutation_names() == ["drop-unacked-save", "skip-blocking",
                                    "skip-pseudo-dirty"]

    def test_unknown_mutation_rejected(self):
        config = sensitivity_config(None)
        system = build_audit_system(config, sensitivity_schedules(config)[0])
        with pytest.raises(ConfigurationError):
            plant_mutation(system, "skip-everything")


class TestSensitivity:
    def test_control_is_clean(self, control_report):
        assert control_report.clean, control_report.violations

    @pytest.mark.parametrize("mutation", ["skip-pseudo-dirty",
                                          "drop-unacked-save",
                                          "skip-blocking"])
    def test_mutation_is_flagged(self, mutation):
        report = run_sensitivity(mutation)
        assert report.violations, \
            f"mutation {mutation!r} survived the sensitivity campaign"
        assert not report.errors

    @pytest.mark.parametrize("mutation", ["skip-pseudo-dirty",
                                          "drop-unacked-save",
                                          "skip-blocking"])
    def test_mutation_is_flagged_on_a_topology(self, mutation):
        """The same planted bugs on the 9-process ``2x2+3`` membership
        (every guarded active mutated, the crash on its last peer's
        node): the N-component checkers must flag them too."""
        config = sensitivity_config(mutation=mutation, topology="2x2+3",
                                    schedules=6)
        schedules = sensitivity_schedules(config)
        assert {c.node_id for s in schedules for c in s.crashes} == {"NP3"}
        report = run_audit(config, schedules=schedules)
        assert report.violations and not report.errors

    def test_skip_pseudo_dirty_breaks_conservatism(self):
        report = run_sensitivity("skip-pseudo-dirty")
        kinds = {v["kind"]
                 for entry in report.violations
                 for finding in entry["findings"]
                 for v in finding["violations"]}
        # Contaminated current-state checkpoints: either the pseudo-
        # conservatism oracle or the ground-truth oracle fires.
        assert kinds & {"pseudo-contamination", "undetected-contamination",
                        "validity-mismatch"}

    def test_drop_unacked_save_breaks_recoverability(self):
        report = run_sensitivity("drop-unacked-save")
        kinds = {v["kind"]
                 for entry in report.violations
                 for finding in entry["findings"]
                 for v in finding["violations"]}
        assert "unrestorable-message" in kinds
