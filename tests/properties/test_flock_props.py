"""Property: flock fork ≡ warm resume ≡ cold replay, bit for bit.

For random fault schedules over random memberships, the same schedule
executed three ways — cold from scratch, warm-resumed from a prefix
image, and forked off a resident flock template — must produce the
same auditor findings and the same canonical trace digest.  And a
planned prefix group forks schedule for schedule whatever order its
schedules arrive in, shrink replays afterwards included.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.audit.auditor import OnlineAuditor
from repro.audit.campaign import (
    SHRINK_MAX_REPLAYS,
    ScheduleRunner,
    build_audit_system,
)
from repro.audit.config import AuditConfig
from repro.audit.generator import generate_schedules, reference_timeline
from repro.audit.golden import canonical_trace_lines, trace_digest
from repro.audit.schedule import CrashSpec, FaultSchedule, SoftwareFaultSpec
from repro.audit.shrink import shrink_schedule
from repro.errors import AuditViolation
from repro.flock import FlockRunner, ForkTemplate, WarmRunner, fork_position
from repro.warmstart import (
    build_image_set,
    capture_times,
    divergence_time,
    resume,
    share_schedule_seeds,
)

TOPOLOGIES = ("paper", "2x2", "3x1")

_CONFIGS = {}
_IMAGE_SETS = {}


def _config(topology: str) -> AuditConfig:
    if topology not in _CONFIGS:
        _CONFIGS[topology] = AuditConfig(
            scheme="coordinated", seed=11, schedules=8,
            horizon=120.0, tb_interval=20.0, topology=topology)
    return _CONFIGS[topology]


def _seed(config: AuditConfig) -> int:
    return share_schedule_seeds(
        config, [FaultSchedule(label="probe", system_seed=0,
                               origin="test")])[0].system_seed


def _image_set(config: AuditConfig):
    key = config.topology
    if key not in _IMAGE_SETS:
        _IMAGE_SETS[key] = build_image_set(
            config, _seed(config), times=capture_times(config))
    return _IMAGE_SETS[key]


def _nodes(config: AuditConfig):
    from repro.topology.model import parse_topology
    return [str(n) for n in parse_topology(config.topology).node_ids()]


def _run(system, auditor):
    try:
        system.run()
    except AuditViolation:
        pass
    try:
        auditor.finalize()
    except AuditViolation:
        pass
    return ([f.to_dict() for f in auditor.findings],
            trace_digest(canonical_trace_lines(system)))


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_flock_equals_resume_equals_cold(data):
    config = _config(data.draw(st.sampled_from(TOPOLOGIES), label="topo"))
    faults = []
    if data.draw(st.booleans(), label="software?"):
        faults.append(SoftwareFaultSpec(
            activate_at=float(data.draw(st.integers(25, 110), label="sw"))))
    n_crashes = data.draw(st.integers(0 if faults else 1, 2), label="crashes")
    nodes = _nodes(config)
    for i in range(n_crashes):
        faults.append(CrashSpec(
            node_id=data.draw(st.sampled_from(nodes), label=f"n{i}"),
            crash_at=float(data.draw(st.integers(25, 110), label=f"c{i}")),
            repair_time=2.0))
    sched = FaultSchedule(
        label="prop", system_seed=_seed(config),
        software=tuple(f for f in faults
                       if isinstance(f, SoftwareFaultSpec)),
        crashes=tuple(f for f in faults if isinstance(f, CrashSpec)),
        origin="test")
    divergence = divergence_time(sched)

    # Cold: the ground truth.
    cold_sys = build_audit_system(config, sched)
    cold = _run(cold_sys, OnlineAuditor(cold_sys, fail_fast=False))

    # Warm: resume the newest image strictly before divergence.
    image = max((img for img in _image_set(config)
                 if img.captured_at < divergence),
                key=lambda img: img.captured_at)
    warm_sys, warm_auditor = resume(image, fail_fast=False)
    sched.arm(warm_sys)
    warm = _run(warm_sys, warm_auditor)

    # Flock: fork off a resident template at the quantized position.
    template = ForkTemplate.from_reference(config, sched)
    assert template.advance_to(fork_position(divergence, config.horizon))
    flock_sys, flock_auditor = template.fork(fail_fast=False)
    sched.arm(flock_sys)
    flock = _run(flock_sys, flock_auditor)

    assert warm == cold
    assert flock == cold


# ----------------------------------------------------------------------
# arrival order
# ----------------------------------------------------------------------
CAMPAIGN = AuditConfig(scheme="naive", seed=7, schedules=12, horizon=300.0)


def _shrunk(runner, original):
    runner.prepare_shrink(original)
    result = shrink_schedule(original, violates=runner.violates,
                             horizon=CAMPAIGN.horizon,
                             max_replays=SHRINK_MAX_REPLAYS)
    return result.schedule.to_dict(), result.replays, result.violated


@functools.lru_cache(maxsize=None)
def _campaign():
    """One shared-prefix group, cold: its results and shrunk forms."""
    group = [sched for sched in share_schedule_seeds(
        CAMPAIGN, generate_schedules(
            CAMPAIGN, timeline=reference_timeline(CAMPAIGN)))
        if not sched.overrides]         # an override is another prefix
    cold = ScheduleRunner(CAMPAIGN)
    results = [cold.result(sched) for sched in group]
    shrunk = {index: _shrunk(cold, group[index])
              for index, result in enumerate(results) if result["violated"]}
    assert len(shrunk) >= 2 and not any(r["error"] for r in results)
    return group, results, shrunk


@settings(max_examples=5, deadline=None)
@given(data=st.data(),
       runner_class=st.sampled_from([FlockRunner, WarmRunner]))
def test_planned_group_forks_in_any_arrival_order(data, runner_class):
    group, cold_results, cold_shrunk = _campaign()
    order = data.draw(st.permutations(range(len(group))), label="order")
    runner = runner_class(CAMPAIGN)
    runner.plan(group)
    [planned] = runner._planned.values()
    assert 2 < len(planned) < len(group)

    results = {index: runner.result(group[index]) for index in order}
    assert [results[index] for index in range(len(group))] == cold_results
    stats = runner.stats()
    assert (stats["flock_runs"], stats["cold_runs"]) == (len(group), 0)
    assert stats["templates_built"] == 1 and stats["sets"] == 0
    # One dump per planned position, taken in passing — in ascending
    # order, whatever the arrival order: always the same bytes.
    assert stats["dumps"] == len(planned)
    ascending = runner_class(CAMPAIGN)
    for sched in sorted(group, key=divergence_time):
        ascending.result(sched)                     # nothing planned
    assert ascending.stats()["dump_bytes"] == 0 == ascending.flock_runs
    ascending.plan(group)
    for sched in sorted(group, key=divergence_time):
        ascending.result(sched)
    assert stats["dump_bytes"] == ascending.stats()["dump_bytes"]

    # Shrink replays afterwards, violators in arrival order: subsets
    # fork at the violator's planned positions, pushed faults at
    # whatever dump is newest before them — none starts cold.
    replays = 0
    for index in (i for i in order if i in cold_shrunk):
        assert _shrunk(runner, group[index]) == cold_shrunk[index]
        replays += cold_shrunk[index][1]
    assert runner.cold_runs == 0
    assert runner.flock_runs == len(group) + replays
    assert runner.templates_built == 1
