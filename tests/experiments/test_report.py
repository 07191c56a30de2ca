"""Smoke test for the one-shot reproduction report."""

from repro.experiments.figure7 import Figure7Config
from repro.experiments.reporting import generate_report


def test_report_regenerates_everything():
    text = generate_report(Figure7Config(internal_rates=(60, 200),
                                         horizon=10_000.0, replications=1))
    # Every artifact family is present...
    for marker in ("Figure 1", "Figure 2", "Figure 3", "Figure 4(a)",
                   "Figure 4(b)", "Figure 6", "Table 1", "E[D_co]",
                   "Performance cost by scheme", "timelines"):
        assert marker in text, marker
    # ...and every scenario claim reproduced.
    assert "Scenario verdict: 6/6" in text
    assert "[FAIL]" not in text
