"""Flock-runner tests: grouping, sharding, gates, equivalence, workers."""

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.audit.campaign import (
    audit_schedule,
    execute_shard,
    make_runner,
    run_audit,
)
from repro.audit.config import AuditConfig
from repro.audit.generator import reference_timeline
from repro.audit.schedule import FaultSchedule
from repro.fabric import plan_shards
from repro.flock import FlockRunner
from repro.warmstart import (
    ImageStore,
    ensure_planned_sets,
    share_schedule_seeds,
)

import pytest

SMALL = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                    horizon=120.0, tb_interval=20.0)


@pytest.fixture(scope="module")
def timeline():
    return reference_timeline(SMALL)


def _shared_seed() -> int:
    return share_schedule_seeds(
        SMALL, [FaultSchedule(label="probe", system_seed=0,
                              origin="test")])[0].system_seed


def _crash(label: str, at: float, seed=None) -> FaultSchedule:
    return FaultSchedule(label=label,
                         system_seed=_shared_seed() if seed is None else seed,
                         crashes=(HardwareFaultPlan(node_id="N2", crash_at=at,
                                                    repair_time=2.0),),
                         origin="test")


class TestGrouping:
    def test_groups_largest_first_divergence_ascending(self):
        schedules = [_crash("solo", 40.0, seed=999),
                     _crash("c", 90.0), _crash("a", 30.0), _crash("b", 60.0)]
        runner = FlockRunner(SMALL)
        groups = runner.groups(schedules)
        assert groups == [[2, 3, 1], [0]]

    def test_shards_split_to_fork_batch(self):
        schedules = [_crash(f"s{i}", 20.0 + i) for i in range(7)]
        runner = FlockRunner(SMALL, fork_batch=3)
        assert runner.shards(schedules) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_plan_is_idempotent(self):
        """Planning the same campaign twice must not inflate singleton
        groups past the gate."""
        schedules = [_crash("solo", 40.0, seed=999)]
        runner = FlockRunner(SMALL)
        runner.plan(schedules)
        runner.plan(schedules)
        assert runner._key(schedules[0]).digest() not in runner._planned
        assert runner.stats()["flock_groups"] == 0


class TestPolicy:
    def test_singleton_group_stays_cold(self):
        runner = FlockRunner(SMALL)
        sched = _crash("solo", 60.0)
        runner.plan([sched])
        findings = runner.audit_schedule(sched)
        assert findings == audit_schedule(SMALL, sched)
        assert runner.cold_runs == 1 and runner.flock_runs == 0
        assert runner.templates_built == 0

    def test_min_group_builds_one_template(self):
        runner = FlockRunner(SMALL)
        schedules = [_crash("a", 50.0), _crash("b", 80.0)]
        runner.plan(schedules)
        for sched in schedules:
            assert runner.audit_schedule(sched) == \
                audit_schedule(SMALL, sched)
        assert runner.flock_runs == 2 and runner.cold_runs == 0
        assert runner.templates_built == 1

    def test_early_divergence_falls_back_cold(self):
        runner = FlockRunner(SMALL)
        schedules = [_crash("early", 0.5), _crash("late", 80.0)]
        runner.plan(schedules)
        findings = runner.audit_schedule(schedules[0])
        assert findings == audit_schedule(SMALL, schedules[0])
        assert runner.cold_runs == 1

    def test_consume_only_runner_never_builds(self):
        runner = FlockRunner(SMALL, build_missing=False)
        schedules = [_crash("a", 50.0), _crash("b", 80.0)]
        runner.plan(schedules)
        runner.audit_schedule(schedules[0])
        assert runner.templates_built == 0 and runner.cold_runs == 1


def _run_shard(runner, schedules):
    """One in-process shard on a resident runner, as run_audit does."""
    runner.plan(schedules)
    return execute_shard(SMALL.to_dict(), [s.to_dict() for s in schedules],
                         runner=runner)


class TestRunBatch:
    def test_matches_cold_campaign(self):
        schedules = [_crash("a", 30.2), _crash("b", 30.4),
                     _crash("c", 62.0), _crash("d", 95.0)]
        runner = FlockRunner(SMALL)
        results = _run_shard(runner, schedules)
        assert [r["schedule"]["label"] for r in results] == \
            ["a", "b", "c", "d"]
        for sched, result in zip(schedules, results):
            cold = audit_schedule(SMALL, sched)
            assert result["violated"] == bool(cold)
            assert result["findings"] == [f.to_dict() for f in cold]
            assert result["error"] is None
        stats = runner.stats()
        assert stats["flock_runs"] == 4 and stats["cold_runs"] == 0
        assert stats["templates_built"] == 1
        assert stats["forks"] == 4
        # Nearby divergences share a quantized dump position.
        assert stats["dumps"] < stats["forks"]

    def test_mixed_fault_kinds(self):
        schedules = [
            FaultSchedule(label="sw", system_seed=_shared_seed(),
                          software=(SoftwareFaultPlan(activate_at=55.0),),
                          origin="test"),
            _crash("cr", 70.0),
        ]
        runner = FlockRunner(SMALL)
        for sched, result in zip(schedules, _run_shard(runner, schedules)):
            cold = audit_schedule(SMALL, sched)
            assert result["violated"] == bool(cold)
            assert result["findings"] == [f.to_dict() for f in cold]

    def test_stats_shape(self):
        runner = FlockRunner(SMALL)
        _run_shard(runner, [_crash("a", 50.0), _crash("b", 80.0)])
        stats = runner.stats()
        for field in ("flock_runs", "cold_runs", "templates_built",
                      "decode_seconds", "build_seconds", "fork_seconds",
                      "run_seconds", "forks", "dumps", "dump_bytes",
                      "shared_objects", "advance_seconds",
                      "dump_encode_seconds"):
            assert field in stats, field
        assert stats["run_seconds"] > 0.0
        assert stats["dump_bytes"] > 0


class TestEnsureTemplate:
    def test_predumps_at_fault_instants(self):
        original = FaultSchedule(
            label="orig", system_seed=_shared_seed(),
            software=(SoftwareFaultPlan(activate_at=64.0),),
            crashes=(HardwareFaultPlan(node_id="N2", crash_at=40.0,
                                       repair_time=2.0),),
            origin="test")
        runner = FlockRunner(SMALL)
        runner.prepare_shrink(original)
        # Planning dumps nothing by itself: the template is built by,
        # and dumps on the way to, the first replay that needs it.
        assert runner.templates_built == 0
        # Candidates fork regardless of the order the shrinker tries
        # them in (template advancement is monotone).
        late = FaultSchedule(
            label="late", system_seed=_shared_seed(),
            software=original.software, origin="test")
        early = FaultSchedule(
            label="early", system_seed=_shared_seed(),
            crashes=original.crashes, origin="test")
        assert runner.violates(late) == \
            bool(audit_schedule(SMALL, late))
        digest = runner._key(original).digest()
        assert runner._templates[digest].dump_positions() == [39.0, 63.0]
        assert runner.violates(early) == \
            bool(audit_schedule(SMALL, early))
        assert runner.templates_built == 1
        assert runner.flock_runs == 2 and runner.cold_runs == 0
        assert runner.stats()["dumps"] == 2

    def test_unplanned_position_resolves_the_documented_way(self):
        """A ``_push_time`` candidate moves a fault *later*, off every
        planned position: ahead of the template it is advanced to and
        dumped at; behind it the newest dump at or before serves (a
        longer suffix, the same run); a fresh build only when there is
        no dump that early.  Never a raise."""
        original = FaultSchedule(
            label="orig", system_seed=_shared_seed(),
            crashes=(HardwareFaultPlan(node_id="N2", crash_at=40.0,
                                       repair_time=2.0),), origin="test")
        runner = FlockRunner(SMALL)
        runner.prepare_shrink(original)
        ahead, behind, before_any = (_crash("ahead", 90.5),
                                     _crash("behind", 70.5),
                                     _crash("before-any", 20.5))
        for sched in (original, ahead, behind, before_any):
            assert runner.audit_schedule(sched) == \
                audit_schedule(SMALL, sched), sched.label
        template = runner._templates[runner._key(original).digest()]
        assert template.dump_positions() == [39.0, 90.0]
        assert template.position == 90.0
        assert runner.flock_runs == 3 and runner.cold_runs == 1

    def test_override_only_original_skipped(self):
        original = FaultSchedule(label="ovr", system_seed=_shared_seed(),
                                 overrides=(("clock_delta", 0.9),),
                                 origin="test")
        runner = FlockRunner(SMALL)
        runner.prepare_shrink(original)
        assert runner.templates_built == 0


class TestWorkerShard:
    """The shard function away from the coordinator: its own runner,
    consume-only when handed a pre-built store."""

    @staticmethod
    def _worker_shard(schedules, root):
        store = ImageStore(root) if root is not None else None
        runner = make_runner(SMALL, "flock", store=store,
                             build_missing=store is None)
        runner.plan(schedules)
        dicts = [s.to_dict() for s in schedules]
        results = execute_shard(SMALL.to_dict(), dicts, runner=runner)
        # What execute_shard builds for itself computes the same.
        assert results == execute_shard(SMALL.to_dict(), dicts, mode="flock",
                                        images_root=root)
        for sched, result in zip(schedules, results):
            assert result["error"] is None
            assert result["violated"] == bool(audit_schedule(SMALL, sched))
        return runner

    def test_shard_without_store_builds_reference(self):
        runner = self._worker_shard([_crash("a", 50.0), _crash("b", 80.0)],
                                    None)
        assert runner.flock_runs == 2 and runner.build_seconds > 0.0

    def test_shard_with_store_thaws_image(self, timeline, tmp_path):
        schedules = [_crash("a", 50.0), _crash("b", 80.0)]
        counters = ensure_planned_sets(
            SMALL, ImageStore(root=tmp_path), schedules,
            plan_shards(SMALL, schedules), timeline)
        assert counters["sets_exported"] == 1
        runner = self._worker_shard(schedules, str(tmp_path))
        assert runner.flock_runs == 2 and runner.decode_seconds > 0.0

    def test_shard_with_empty_store_degrades_cold(self, tmp_path):
        runner = self._worker_shard([_crash("a", 50.0), _crash("b", 80.0)],
                                    str(tmp_path))
        assert runner.flock_runs == 0 and runner.cold_runs == 2


class TestRunAuditIntegration:
    def test_flock_config_knob_enables_it(self, timeline):
        """The flock knob is ``run_audit``'s keyword; the config has none."""
        config = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                             horizon=120.0, tb_interval=20.0)
        schedules = [_crash("a", 30.0), _crash("b", 60.0)]
        report = run_audit(config, schedules=schedules, timeline=timeline,
                           flock=True)
        assert report.warmstart is not None
        assert report.warmstart["mode"] == "flock"
        with pytest.raises(TypeError):
            AuditConfig(scheme="coordinated", seed=11, flock=True)

    def test_flock_knobs_stay_out_of_fingerprint(self):
        on = AuditConfig(scheme="coordinated", seed=11, fork_batch=7)
        off = AuditConfig(scheme="coordinated", seed=11)
        assert on.fingerprint() == off.fingerprint()
        assert "fork_batch" not in on.to_dict()
