"""Template tests: quantization, monotone advance, dump cache, refusal."""

import math

import pytest

from repro.audit.auditor import OnlineAuditor
from repro.audit.campaign import build_audit_system
from repro.audit.config import AuditConfig
from repro.audit.golden import canonical_trace_lines, trace_digest
from repro.audit.schedule import CrashSpec, FaultSchedule
from repro.errors import AuditViolation
from repro.flock import FORK_QUANTUM, ForkTemplate, fork_position
from repro.warmstart import share_schedule_seeds

SMALL = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                    horizon=120.0, tb_interval=20.0)


def _shared_seed() -> int:
    return share_schedule_seeds(
        SMALL, [FaultSchedule(label="probe", system_seed=0,
                              origin="test")])[0].system_seed


def _crash(label: str, at: float) -> FaultSchedule:
    return FaultSchedule(label=label, system_seed=_shared_seed(),
                         crashes=(CrashSpec(node_id="N2", crash_at=at,
                                            repair_time=2.0),),
                         origin="test")


def _cold_digest(sched: FaultSchedule) -> str:
    system = build_audit_system(SMALL, sched)
    auditor = OnlineAuditor(system, fail_fast=False)
    try:
        system.run()
    except AuditViolation:
        pass
    try:
        auditor.finalize()
    except AuditViolation:
        pass
    return trace_digest(canonical_trace_lines(system))


class TestForkPosition:
    def test_quantized_strictly_before_divergence(self):
        assert fork_position(30.0, 120.0) == 29.0
        assert fork_position(30.5, 120.0) == 30.0
        assert fork_position(0.4, 120.0) == 0.0

    def test_fault_free_caps_short_of_horizon(self):
        pos = fork_position(float("inf"), 120.0)
        assert pos < 120.0
        assert pos == math.floor((120.0 - 1e-6) / FORK_QUANTUM) * FORK_QUANTUM

    def test_boundary_cluster_shares_a_position(self):
        # Schedules aiming at jittered offsets after one instant land
        # on the same grid point — one cached dump serves the cluster;
        # the just-before probes share the preceding grid point.
        after = {fork_position(60.0 + d, 120.0)
                 for d in (0.05, 0.3, 0.7, 0.95)}
        before = {fork_position(60.0 + d, 120.0) for d in (-0.4, -0.2)}
        assert after == {60.0}
        assert before == {59.0}


class TestForkTemplate:
    def test_advance_is_monotone_and_dumps_cache(self):
        template = ForkTemplate.from_reference(SMALL, _crash("t", 50.0))
        assert template.advance_to(30.0)
        assert template.position == 30.0
        first = template.dump()
        assert template.dump() is first            # cached
        assert template.advance_to(20.0)           # no-op, never rewinds
        assert template.position == 30.0
        assert template.advance_to(45.0)
        assert template.dump_positions() == [30.0]
        template.dump()
        assert template.dump_positions() == [30.0, 45.0]

    def test_dump_at_serves_older_positions(self):
        template = ForkTemplate.from_reference(SMALL, _crash("t", 50.0))
        template.advance_to(20.0)
        early = template.dump()
        template.advance_to(40.0)
        template.dump()
        assert template.dump_at(25.0) is early
        assert template.dump_at(19.0) is None

    def test_fork_runs_bit_identical_to_cold(self):
        sched = _crash("fork", 47.0)
        template = ForkTemplate.from_reference(SMALL, sched)
        template.advance_to(fork_position(47.0, SMALL.horizon))
        system, auditor = template.fork()
        sched.arm(system)
        try:
            system.run()
        except AuditViolation:
            pass
        try:
            auditor.finalize()
        except AuditViolation:
            pass
        assert trace_digest(canonical_trace_lines(system)) == \
            _cold_digest(sched)

    @pytest.mark.parametrize("crash_at", [38.96, 57.92, 67.4])
    def test_fork_accounts_checkpoint_bytes_like_cold(self, crash_at):
        """Under ``naive`` a fork position usually finds unvalidated
        journal records in the encoder's baselines.  They are compared
        by identity, so the fork must diff against *its own* copies —
        a baseline shared with the template would re-encode every one
        of them as remove + add and the byte counters would drift."""
        naive = AuditConfig(scheme="naive", seed=11, schedules=8,
                            horizon=120.0, tb_interval=20.0)
        seed = share_schedule_seeds(
            naive, [FaultSchedule(label="probe", system_seed=0,
                                  origin="test")])[0].system_seed
        sched = FaultSchedule(label="bytes", system_seed=seed,
                              crashes=(CrashSpec(node_id="N2",
                                                 crash_at=crash_at,
                                                 repair_time=2.0),),
                              origin="test")

        def written(system):
            return [(node.stable.bytes_written, node.volatile.bytes_written)
                    for node in system.nodes.values()]

        cold = build_audit_system(naive, sched)
        cold.run()
        template = ForkTemplate.from_reference(naive, sched)
        template.advance_to(fork_position(crash_at, naive.horizon))
        assert any(baseline.unvalidated
                   for proc in template.system.process_list()
                   for baseline in
                   proc.snapshot_encoder._journal_baselines.values())
        system, _auditor = template.fork(fail_fast=False)
        sched.arm(system)
        system.run()
        assert written(system) == written(cold)

    def test_sequential_forks_are_independent(self):
        a, b = _crash("a", 40.0), _crash("b", 40.0)
        template = ForkTemplate.from_reference(SMALL, a)
        template.advance_to(fork_position(40.0, SMALL.horizon))
        digests = []
        for sched in (a, b):
            system, auditor = template.fork()
            sched.arm(system)
            try:
                system.run()
            except AuditViolation:
                pass
            digests.append(trace_digest(canonical_trace_lines(system)))
        assert digests[0] == digests[1] == _cold_digest(a)
        assert template.forks == 2

    def test_template_advances_past_forked_positions(self):
        """Forking never freezes the template: later (larger
        divergence) schedules keep advancing the same resident run."""
        template = ForkTemplate.from_reference(SMALL, _crash("t", 30.0))
        template.advance_to(29.0)
        template.dump()
        template.fork()
        assert template.advance_to(80.0)
        assert template.position == 80.0


    def test_advancement_dumps_at_the_stops_it_passes(self):
        """Planned stops behind the template or past the target are not
        its business; each one in between is dumped at in passing, the
        target itself only on demand."""
        template = ForkTemplate.from_reference(SMALL, _crash("t", 30.0))
        assert template.advance_to(20.0)
        stops = {10.0, 20.0, 35.0, 50.5, 70.0, 90.0}
        assert template.advance_to(70.0, stops)
        assert template.position == 70.0
        assert template.dump_positions() == [35.0, 50.5]
        assert template.advance_to(70.0, stops)          # nothing to pass
        assert template.dump_positions() == [35.0, 50.5]
        # A dump taken in passing is the dump a stop there would get.
        straight = ForkTemplate.from_reference(SMALL, _crash("t", 30.0))
        straight.advance_to(20.0)
        straight.advance_to(35.0)
        assert len(straight.dump().dump) == len(template.dump_at(35.0).dump)


class _ViolatedAuditor:
    violated = True
    fail_fast = False
    findings = ()


class _TurnsViolated(_ViolatedAuditor):
    def __init__(self, system, after: float) -> None:
        self.system, self.after = system, after

    @property
    def violated(self) -> bool:
        return self.system.sim.now > self.after


class TestViolatedReference:
    def test_advance_refuses(self):
        sched = FaultSchedule(label="v", system_seed=_shared_seed(),
                              origin="test")
        system = build_audit_system(SMALL, sched)
        system.run(until=20.0)
        template = ForkTemplate(system, _ViolatedAuditor())
        assert template.advance_to(60.0) is False
        assert template.position == 20.0           # never ran further

    def test_violation_on_the_way_ends_the_stops(self):
        template = ForkTemplate.from_reference(SMALL, _crash("t", 30.0))
        template.auditor = _TurnsViolated(template.system, after=40.0)
        assert template.advance_to(90.0, {30.0, 60.0, 80.0}) is False
        assert template.dump_positions() == [30.0]
        assert template.position < 60.0             # gave up early

    def test_dump_refuses(self):
        sched = FaultSchedule(label="v", system_seed=_shared_seed(),
                              origin="test")
        system = build_audit_system(SMALL, sched)
        system.run(until=20.0)
        template = ForkTemplate(system, _ViolatedAuditor())
        with pytest.raises(RuntimeError, match="violated"):
            template.dump()

    def test_clean_dumps_survive_later_violation(self):
        """The last clean cached dump keeps serving forks after the
        reference turns violated (the shrink fallback path)."""
        sched = _crash("t", 50.0)
        template = ForkTemplate.from_reference(SMALL, sched)
        template.advance_to(40.0)
        clean = template.dump()
        template.auditor = _ViolatedAuditor()
        assert template.dump_at(45.0) is clean
        system, _auditor = template.fork(clean)
        assert system.sim.now == 40.0
