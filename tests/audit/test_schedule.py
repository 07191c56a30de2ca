"""Unit tests for the serializable fault-schedule descriptions and the
campaign config's identity."""

import dataclasses
import hashlib
import json
import pathlib
import pickle

import pytest

from repro.audit import (
    GOLDEN_CONFIG,
    AuditConfig,
    CrashSpec,
    FaultSchedule,
    SoftwareFaultSpec,
)
from repro.errors import ConfigurationError


def sample_schedule():
    return FaultSchedule(
        label="t:0", system_seed=42,
        software=(SoftwareFaultSpec(activate_at=10.0, deactivate_at=30.0),),
        crashes=(CrashSpec(node_id="N2", crash_at=50.0, repair_time=1.5),),
        overrides=(("clock_delta", 0.5),), origin="boundary")


class TestSerialization:
    def test_dict_round_trip(self):
        sched = sample_schedule()
        assert FaultSchedule.from_dict(sched.to_dict()) == sched

    def test_json_round_trip(self):
        sched = sample_schedule()
        assert FaultSchedule.from_json(sched.to_json()) == sched

    def test_json_is_canonical(self):
        # sort_keys + sorted overrides: equal schedules, equal bytes.
        a = sample_schedule()
        b = FaultSchedule.from_json(a.to_json())
        assert a.to_json() == b.to_json()

    def test_from_dict_defaults(self):
        sched = FaultSchedule.from_dict({"label": "x", "system_seed": 1})
        assert sched.software == () and sched.crashes == ()
        assert sched.origin == "replay"

    def test_crash_spec_default_repair(self):
        spec = CrashSpec.from_dict({"node_id": "N1a", "crash_at": 3.0})
        assert spec.repair_time == 2.0


class TestValidation:
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
