"""The headline equivalence claim: one scripted workload — including a
``kill -9`` crash and the coordinated hardware recovery — produces the
same ordered per-process decision sequences on the discrete-event
backend and on real OS processes over TCP."""

import pytest

from repro.runtime.crosscheck import run_crosscheck
from repro.runtime.decisions import diff_decisions
from repro.runtime.script import topology_script
from repro.topology.model import Topology


class TestCrosscheck:
    def test_standard_script_equivalent(self, tmp_path):
        result = run_crosscheck(seed=0, workdir=str(tmp_path / "live"))
        assert result.differences == []
        assert result.equivalent
        # The script exercised what it claims to: a hardware rollback
        # on every process and post-recovery establishments.
        for process in ("P1_act", "P1_sdw", "P2"):
            events = [e["event"] for e in result.sim_decisions[process]]
            assert "recovery.rollback.hardware" in events
            assert "tb.establish.done" in events

    def test_seed_changes_decisions_but_not_equivalence(self, tmp_path):
        result = run_crosscheck(seed=42, workdir=str(tmp_path / "live"))
        assert result.equivalent, result.differences

    def test_summary_shape(self, tmp_path):
        result = run_crosscheck(seed=0, workdir=str(tmp_path / "live"))
        summary = result.summary()
        assert summary["equivalent"] is True
        assert summary["ops"] == len(topology_script(Topology.paper()))
        assert set(summary["decisions_per_process"]) == \
            {"P1_act", "P1_sdw", "P2"}


class TestDiffReporting:
    def test_diff_pinpoints_divergence(self):
        expected = {"P2": [{"event": "at.pass"}, {"event": "tb.reset",
                                                  "epoch": 2}]}
        actual = {"P2": [{"event": "at.pass"}, {"event": "tb.reset",
                                                "epoch": 3}]}
        diffs = diff_decisions(expected, actual)
        assert len(diffs) == 1
        assert "P2" in diffs[0] and "epoch" in diffs[0]

    def test_missing_process_reported(self):
        diffs = diff_decisions({"P2": [{"event": "at.pass"}]}, {})
        assert diffs and "P2" in diffs[0]

    def test_equal_traces_no_diffs(self):
        trace = {"P1_act": [{"event": "at.pass"}]}
        assert diff_decisions(trace, dict(trace)) == []
