"""Unit tests for the serializable fault-schedule descriptions and the
campaign config's identity."""

import dataclasses
import hashlib
import json
import pathlib
import pickle

import pytest

from repro.__main__ import main
from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.audit import (
    GOLDEN_CONFIG,
    AuditConfig,
    AuditReport,
    FaultSchedule,
    build_audit_system,
    write_artifact,
)
from repro.errors import ConfigurationError


def sample_schedule():
    return FaultSchedule(
        label="t:0", system_seed=42,
        software=(SoftwareFaultPlan(activate_at=10.0, deactivate_at=30.0),),
        crashes=(HardwareFaultPlan(node_id="N2", crash_at=50.0,
                                   repair_time=1.5),),
        overrides=(("clock_delta", 0.5),), origin="boundary")


class TestSerialization:
    def test_dict_round_trip(self):
        sched = sample_schedule()
        assert FaultSchedule.from_dict(sched.to_dict()) == sched
        # A second component's fault keeps its component (and arms on a
        # membership that has one); a crash written without a repair
        # time reads as the audit's 2 s.
        data = dataclasses.replace(sched, software=(
            SoftwareFaultPlan(activate_at=10.0, component=2),)).to_dict()
        assert data["software"] == [
            {"activate_at": 10.0, "deactivate_at": None, "component": 2}]
        del data["crashes"][0]["repair_time"]
        data["crashes"][0]["node_id"] = "NP3"
        loaded = FaultSchedule.from_dict(data)
        assert loaded.software == (SoftwareFaultPlan(10.0, None, 2),)
        assert loaded.crashes == (HardwareFaultPlan("NP3", 50.0, 2.0),)
        system = build_audit_system(
            AuditConfig(scheme="coordinated", topology="2x2+3",
                        horizon=70.0), loaded)
        system.run()
        assert system.low_versions[2].fault_active
        assert not system.low_versions[1].fault_active

    def test_json_round_trip(self):
        sched = sample_schedule()
        assert FaultSchedule.from_dict(json.loads(sched.to_json())) == sched

    def test_json_is_canonical(self):
        # sort_keys + sorted overrides: equal schedules, equal bytes.
        a = sample_schedule()
        b = FaultSchedule.from_dict(json.loads(a.to_json()))
        assert a.to_json() == b.to_json()

    def test_from_dict_defaults(self):
        sched = FaultSchedule.from_dict({"label": "x", "system_seed": 1})
        assert sched.software == () and sched.crashes == ()
        assert sched.origin == "replay"

    def test_crash_spec_default_repair(self):
        plan = HardwareFaultPlan.from_dict({"node_id": "N1a", "crash_at": 3.0})
        assert plan.repair_time == 2.0


class TestValidation:
    def test_from_dict_rejects_malformed_times(self):
        for software in ({"activate_at": -5.0, "deactivate_at": None},
                         {"activate_at": 50.0, "deactivate_at": 40.0}):
            with pytest.raises(ConfigurationError):
                FaultSchedule.from_dict({"label": "bad", "system_seed": 1,
                                         "software": [software]})
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_dict({"label": "bad", "system_seed": 1,
                                     "crashes": [{"node_id": "N2",
                                                  "crash_at": -1.0}]})

    @pytest.mark.parametrize("faults, reason", [
        ({"crashes": [{"node_id": "N9", "crash_at": 50.0}]},
         "unknown node 'N9' (this topology has N1a, N1b, N2)"),
        ({"software": [{"activate_at": 50.0, "deactivate_at": None,
                        "component": 3}]},
         "unknown component 3 (this topology has 1)"),
        ({"software": [{"activate_at": -5.0, "deactivate_at": None}]},
         "activate_at must be >= 0"),
        ({"software": [{"activate_at": 50.0, "deactivate_at": 40.0}]},
         "deactivate_at must follow activate_at"),
        ({"crashes": [{"node_id": "N2"}]},
         "fault record lacks 'crash_at'"),
        ({"crashes": [{"node_id": "N2", "crash_at": "soon"}]},
         "fault record field 'crash_at' is not a number: 'soon'"),
        ({"software": [{"deactivate_at": 40.0}]},
         "fault record lacks 'activate_at'"),
        ({"software": [{"activate_at": 5.0, "component": "two"}]},
         "fault record field 'component' is not a number: 'two'"),
    ], ids=["unknown-node", "unknown-component", "negative-time",
            "inverted-window", "missing-crash-at", "non-numeric-crash-at",
            "missing-activate-at", "non-numeric-component"])
    def test_replay_rejects_an_unarmable_fault_in_one_line(
            self, faults, reason, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_artifact(AuditReport(
            config=AuditConfig(scheme="naive", seed=7, schedules=1,
                               horizon=100.0),
            schedules_run=1, errors=[], shrunk=[], wall_seconds=0.0,
            violations=[{"schedule": {"label": "bad", "system_seed": 1,
                                      **faults},
                         "findings": []}]), str(path))
        assert main(["audit", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"audit --replay: {path}: ")
        assert reason in captured.err and captured.err.count("\n") == 1

    def test_replay_rejects_a_file_that_is_not_json_in_one_line(
            self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["audit", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"audit --replay: {path}: not a JSON artifact: ")
        assert captured.err.count("\n") == 1

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(label="bad", system_seed=1,
                          overrides=(("warp_factor", 9.0),))

    def test_known_overrides_accepted(self):
        for key in ("clock_delta", "clock_rho", "tb_interval"):
            FaultSchedule(label="ok", system_seed=1, overrides=((key, 1.0),))


class TestBehaviour:
    def test_fault_count(self):
        assert sample_schedule().fault_count == 2
        assert FaultSchedule(label="e", system_seed=0).fault_count == 0

    def test_describe_mentions_every_fault(self):
        text = sample_schedule().describe()
        assert "sw@10.00" in text
        assert "crash:N2@50.00" in text
        assert "clock_delta=0.5" in text

    def test_describe_fault_free(self):
        assert "fault-free" in FaultSchedule(label="e", system_seed=0).describe()

    def test_with_faults_changes_origin(self):
        sched = sample_schedule()
        shrunk = sched.with_faults((), sched.crashes, origin="shrunk")
        assert shrunk.software == ()
        assert shrunk.origin == "shrunk"
        assert shrunk.system_seed == sched.system_seed

    def test_arm_injects_every_fault(self):
        class FakeSystem:
            def __init__(self):
                self.software = []
                self.crashes = []

            def inject_software_fault(self, plan):
                self.software.append(plan)

            def inject_crash(self, plan):
                self.crashes.append(plan)

        system = FakeSystem()
        sample_schedule().arm(system)
        assert len(system.software) == 1
        assert len(system.crashes) == 1
        assert system.crashes[0].node_id == "N2"


class TestConfigFingerprint:
    """``AuditConfig.fingerprint()`` is remembered per (frozen)
    instance, beside the fields — invisible to everything that goes by
    them."""

    CONFIG_KW = dict(scheme="naive", seed=7, schedules=12, horizon=300.0,
                     topology="2x2+3")

    @staticmethod
    def uncached(config) -> str:
        payload = json.dumps(config.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def test_computed_once_and_equal_to_the_uncached_digest(
            self, monkeypatch):
        config = AuditConfig(**self.CONFIG_KW)
        expected = self.uncached(config)
        calls = []
        to_dict = AuditConfig.to_dict
        monkeypatch.setattr(
            AuditConfig, "to_dict",
            lambda self: calls.append(self) or to_dict(self))
        assert [config.fingerprint() for _ in range(3)] == [expected] * 3
        assert calls == [config]

    def test_replace_yields_a_fresh_one(self):
        config = AuditConfig(**self.CONFIG_KW)
        config.fingerprint()
        longer = dataclasses.replace(config, horizon=900.0)
        assert "_fingerprint" not in vars(longer)
        assert longer.fingerprint() == self.uncached(longer)
        assert longer.fingerprint() != config.fingerprint()

    def test_memo_is_not_part_of_the_value(self):
        config = AuditConfig(**self.CONFIG_KW)
        before = (config.to_dict(), pickle.dumps(config), repr(config))
        digest = config.fingerprint()
        assert (config.to_dict(), pickle.dumps(config), repr(config)) == before
        assert digest not in json.dumps(config.to_dict())  # welcome frame
        assert config == AuditConfig(**self.CONFIG_KW)
        for copy in (AuditConfig.from_dict(config.to_dict()),
                     pickle.loads(pickle.dumps(config))):
            assert copy == config and "_fingerprint" not in vars(copy)
            assert copy.fingerprint() == digest

    def test_pinned_golden_fingerprint_does_not_move(self):
        """(The ledger's pinned inputs digest covers each workload's
        ``to_dict()``: ``benchmarks/e2e`` ``pinned_inputs``.)"""
        golden = json.loads((pathlib.Path(__file__).resolve().parent.parent
                             / "golden" / "fig6_traces.json").read_text())
        assert GOLDEN_CONFIG.fingerprint() == golden["config_fingerprint"]
        assert self.uncached(GOLDEN_CONFIG) == golden["config_fingerprint"]
