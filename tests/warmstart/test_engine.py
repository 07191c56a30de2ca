"""Warm-start tests: capture planning, the runner's group policy and
fallback under its warm-start names, and the resume-equals-cold
contract under adversarial simulator states."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.audit.auditor import OnlineAuditor
from repro.audit.campaign import (
    audit_schedule,
    build_audit_system,
    execute_shard,
)
from repro.audit.config import AuditConfig
from repro.audit.generator import reference_timeline
from repro.audit.golden import canonical_trace_lines, trace_digest
from repro.audit.schedule import SYSTEM_NODES, FaultSchedule
from repro.errors import AuditViolation
from repro.fabric import plan_shards
from repro.warmstart import (
    MIN_GROUP,
    ImageStore,
    WarmRunner,
    build_image_set,
    capture,
    capture_times,
    divergence_time,
    ensure_planned_sets,
    resume,
    share_schedule_seeds,
)
from repro.warmstart.engine import MAX_IMAGES, MIN_CAPTURE_GAP

SMALL = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                    horizon=120.0, tb_interval=20.0)


@pytest.fixture(scope="module")
def timeline():
    return reference_timeline(SMALL)


def _shared_seed() -> int:
    return share_schedule_seeds(
        SMALL, [FaultSchedule(label="probe", system_seed=0,
                              origin="test")])[0].system_seed


def _crash(label: str, at: float, node: str = "N2") -> FaultSchedule:
    return FaultSchedule(label=label, system_seed=_shared_seed(),
                         crashes=(HardwareFaultPlan(node_id=node, crash_at=at,
                                                    repair_time=2.0),),
                         origin="test")


def _noop() -> None:
    pass


class TestDivergenceTime:
    def test_earliest_fault_wins(self):
        sched = FaultSchedule(
            label="d", system_seed=1,
            software=(SoftwareFaultPlan(activate_at=50.0),),
            crashes=(HardwareFaultPlan(node_id="N2", crash_at=30.0,
                                       repair_time=2.0),),
            origin="test")
        assert divergence_time(sched) == 30.0

    def test_fault_free_is_the_reference(self):
        sched = FaultSchedule(label="d", system_seed=1, origin="test")
        assert divergence_time(sched) == float("inf")


class TestCaptureTimes:
    def test_plan_shape(self, timeline):
        times = capture_times(SMALL, timeline)
        assert times == sorted(times)
        assert len(times) <= MAX_IMAGES
        assert all(0.0 < t < SMALL.horizon - 1.0 + 1e-9 for t in times)
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d >= MIN_CAPTURE_GAP - 1e-9 for d in diffs)

    def test_pre_points_cover_sensitive_instants(self, timeline):
        times = capture_times(SMALL, timeline)
        # Every commit instant has an image close enough before it that
        # a "just before" boundary fault still finds a resume point.
        for commit in timeline.commit_times():
            if not 2.0 < commit < SMALL.horizon - 2.0:
                continue
            before = [t for t in times if t < commit]
            assert before, f"no capture before commit at {commit}"


class TestShareScheduleSeeds:
    def test_one_seed_for_all(self):
        schedules = [_crash("a", 30.0), _crash("b", 60.0)]
        shared = share_schedule_seeds(SMALL, schedules)
        assert len({s.system_seed for s in shared}) == 1
        # Deterministic in the config seed, and distinct across seeds.
        again = share_schedule_seeds(SMALL, schedules)
        assert [s.system_seed for s in again] == \
            [s.system_seed for s in shared]
        other = share_schedule_seeds(
            AuditConfig(scheme="coordinated", seed=12), schedules)
        assert other[0].system_seed != shared[0].system_seed

    def test_faults_untouched(self):
        sched = _crash("a", 30.0)
        shared = share_schedule_seeds(SMALL, [sched])[0]
        assert shared.crashes == sched.crashes
        assert shared.label == sched.label


class TestWarmRunnerPolicy:
    """``warmstart=True`` is the template runner: no image set is ever
    built by the process that runs the schedules."""

    def test_singleton_group_stays_cold(self, timeline):
        runner = WarmRunner(SMALL, timeline=timeline)
        sched = _crash("solo", 60.0)
        runner.plan([sched])
        findings = runner.audit_schedule(sched)
        assert findings == audit_schedule(SMALL, sched)
        assert runner.cold_runs == 1 and runner.flock_runs == 0
        assert runner.templates_built == 0

    def test_min_group_triggers_build(self, timeline):
        assert MIN_GROUP == 2
        runner = WarmRunner(SMALL, timeline=timeline)
        schedules = [_crash("a", 50.0), _crash("b", 80.0)]
        runner.plan(schedules)
        for sched in schedules:
            runner.audit_schedule(sched)
        assert runner.flock_runs == 2 and runner.cold_runs == 0
        # One shared prefix: one template, built once — and no set.
        assert runner.templates_built == 1
        assert runner.store.stats()["sets"] == 0

    def test_force_builds_for_singletons(self, timeline):
        runner = WarmRunner(SMALL, timeline=timeline)
        sched = _crash("solo", 60.0)
        runner.plan([sched])
        assert not runner.ensure_images(sched)
        assert runner.ensure_images(sched, force=True)
        assert runner.templates_built == 1
        runner.audit_schedule(sched)
        assert runner.flock_runs == 1

    def test_divergence_before_first_capture_falls_back_cold(self, timeline):
        runner = WarmRunner(SMALL, timeline=timeline)
        early = _crash("early", 0.5)  # before the first fork position
        runner.plan([early, _crash("late", 80.0)])
        findings = runner.audit_schedule(early)
        assert findings == audit_schedule(SMALL, early)
        assert runner.cold_runs == 1

    def test_consume_only_runner_never_builds(self, timeline):
        runner = WarmRunner(SMALL, timeline=timeline, build_missing=False)
        sched = _crash("a", 60.0)
        runner.plan([sched, _crash("b", 80.0)])
        runner.audit_schedule(sched)
        assert runner.templates_built == 0 and runner.cold_runs == 1

    def test_stats_counters(self, timeline):
        runner = WarmRunner(SMALL, timeline=timeline)
        schedules = [_crash("a", 50.0), _crash("b", 80.0)]
        runner.plan(schedules)
        for sched in schedules:
            runner.audit_schedule(sched)
        stats = runner.stats()
        assert stats["warm_runs"] == stats["flock_runs"] == 2
        assert stats["sets_built"] == 0 and stats["bytes"] == 0
        assert stats["templates_built"] == 1 and stats["dumps"] == 2
        # The ledger's columns: build = the resident reference, decode
        # = every thaw.
        assert stats["build_seconds"] >= stats["advance_seconds"] > 0.0
        assert stats["decode_seconds"] >= stats["fork_seconds"] > 0.0


class TestWarmEqualsCold:
    def test_traced_audit_digest_matches_cold(self, timeline):
        runner = WarmRunner(SMALL, timeline=timeline)
        sched = _crash("w", 60.0)
        runner.plan([sched, _crash("x", 80.0)])
        _findings, system = runner.traced_audit(sched, fail_fast=False)
        assert runner.flock_runs == 1

        cold = build_audit_system(SMALL, sched)
        auditor = OnlineAuditor(cold, fail_fast=False)
        try:
            cold.run()
        except AuditViolation:
            pass
        try:
            auditor.finalize()
        except AuditViolation:
            pass
        assert trace_digest(canonical_trace_lines(system)) == \
            trace_digest(canonical_trace_lines(cold))

    def test_resume_mid_blocking_window(self, timeline):
        """An image captured inside a TB blocking window (buffered
        messages, establishment in flight) must still resume exactly."""
        blocking = [w for w in timeline.blocking if w[1] > w[0]]
        assert blocking, "reference run produced no blocking windows"
        start, end = blocking[len(blocking) // 2]
        mid = (start + end) / 2.0
        sched = FaultSchedule(label="blk", system_seed=_shared_seed(),
                              origin="test")
        system = build_audit_system(SMALL, sched)
        system.run(until=mid)
        image = capture(system)
        thawed, _ = resume(image)
        thawed.run()
        cold = build_audit_system(SMALL, sched)
        cold.run()
        assert trace_digest(canonical_trace_lines(thawed)) == \
            trace_digest(canonical_trace_lines(cold))

    def test_resume_with_cancellation_heavy_heap(self):
        """A heap full of lazily-cancelled entries (compaction pending)
        must survive the pickle round-trip without dropping or reviving
        events."""
        sched = FaultSchedule(label="cancel", system_seed=_shared_seed(),
                              origin="test")
        system = build_audit_system(SMALL, sched)
        system.run(until=30.0)
        handles = [system.sim.schedule_after(50.0 + 0.01 * i, _noop)
                   for i in range(200)]
        for event in handles[:180]:
            event.cancel()
        image = capture(system)
        thawed, _ = resume(image)
        assert thawed.sim.pending_count() == system.sim.pending_count()
        thawed.run()
        system.run()
        assert trace_digest(canonical_trace_lines(thawed)) == \
            trace_digest(canonical_trace_lines(system))

    def test_worker_entry_consumes_prebuilt_store(self, timeline, tmp_path):
        shard = [_crash("wk", 60.0), _crash("wl", 70.0)]
        counters = ensure_planned_sets(
            SMALL, ImageStore(root=tmp_path), shard,
            plan_shards(SMALL, shard), timeline)
        assert counters["sets_exported"] == 1
        dicts = [sched.to_dict() for sched in shard]
        results = execute_shard(SMALL.to_dict(), dicts, mode="warm",
                                images_root=str(tmp_path))
        for sched, result in zip(shard, results):
            assert result["error"] is None
            assert result["violated"] == bool(audit_schedule(SMALL, sched))
        # The worker's runner is consume-only: its template is thawed
        # from what it finds, and it writes nothing back.
        worker = WarmRunner(SMALL, store=ImageStore(root=tmp_path),
                            build_missing=False)
        worker.plan(shard)
        assert [worker.result(sched) for sched in shard] == results
        stats = worker.stats()
        assert stats["warm_runs"] == 2 and stats["sets_built"] == 0
        assert stats["templates_built"] == 1
        assert worker.decode_seconds > 0.0 and worker.build_seconds == 0.0
        assert len(list((tmp_path / "blobs").iterdir())) == 1


@pytest.fixture(scope="module")
def image_set(timeline):
    return build_image_set(SMALL, _shared_seed(),
                           times=capture_times(SMALL, timeline))


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_property_resume_equals_cold(image_set, data):
    """capture -> resume -> run == cold run, for random fault mixes."""
    faults = []
    if data.draw(st.booleans(), label="software?"):
        faults.append(SoftwareFaultPlan(
            activate_at=float(data.draw(st.integers(25, 110), label="sw"))))
    n_crashes = data.draw(st.integers(0 if faults else 1, 2), label="crashes")
    for i in range(n_crashes):
        faults.append(HardwareFaultPlan(
            node_id=data.draw(st.sampled_from(SYSTEM_NODES), label=f"n{i}"),
            crash_at=float(data.draw(st.integers(25, 110), label=f"c{i}")),
            repair_time=2.0))
    sched = FaultSchedule(
        label="prop", system_seed=_shared_seed(),
        software=tuple(f for f in faults
                       if isinstance(f, SoftwareFaultPlan)),
        crashes=tuple(f for f in faults if isinstance(f, HardwareFaultPlan)),
        origin="test")

    div = divergence_time(sched)
    image = max((img for img in image_set if img.captured_at < div),
                key=lambda img: img.captured_at)
    system, auditor = resume(image, fail_fast=False)
    sched.arm(system)
    try:
        system.run()
    except AuditViolation:
        pass
    try:
        auditor.finalize()
    except AuditViolation:
        pass

    cold = build_audit_system(SMALL, sched)
    cold_auditor = OnlineAuditor(cold, fail_fast=False)
    try:
        cold.run()
    except AuditViolation:
        pass
    try:
        cold_auditor.finalize()
    except AuditViolation:
        pass

    assert trace_digest(canonical_trace_lines(system)) == \
        trace_digest(canonical_trace_lines(cold))
    assert [f.to_dict() for f in auditor.findings] == \
        [f.to_dict() for f in cold_auditor.findings]
