"""Capture/resume round-trips: the bit-for-bit contract.

``resume(capture(system))`` then running to the horizon must produce
exactly the trace an uninterrupted run produces — same canonical
digest, same findings, same global message-id position.
"""

import pytest

from repro.audit.auditor import OnlineAuditor
from repro.audit.campaign import build_audit_system
from repro.audit.config import AuditConfig
from repro.audit.golden import canonical_trace_lines, trace_digest
from repro.audit.schedule import FaultSchedule
from repro.coordination.scheme import build_system
from repro.errors import AuditViolation
from repro.warmstart import capture, resume

SMALL = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                    horizon=120.0, tb_interval=20.0)


def _schedule(seed: int = 4242) -> FaultSchedule:
    return FaultSchedule(label="img-test", system_seed=seed, origin="test")


def _drain(system, auditor) -> None:
    try:
        system.run()
    except AuditViolation:
        pass
    try:
        auditor.finalize()
    except AuditViolation:
        pass


def _cold_digest(schedule: FaultSchedule):
    system = build_system(SMALL.system_config(schedule))
    system.run()
    return trace_digest(canonical_trace_lines(system))


class TestRoundTrip:
    def test_resumed_run_is_bitforbit_cold(self):
        schedule = _schedule()
        system = build_audit_system(SMALL, schedule)
        auditor = OnlineAuditor(system, fail_fast=False)
        system.run(until=60.0)
        image = capture(system, auditor)
        thawed, thawed_auditor = resume(image)
        _drain(thawed, thawed_auditor)

        cold = build_audit_system(SMALL, schedule)
        cold_auditor = OnlineAuditor(cold, fail_fast=False)
        _drain(cold, cold_auditor)

        assert trace_digest(canonical_trace_lines(thawed)) == \
            trace_digest(canonical_trace_lines(cold))
        assert [f.to_dict() for f in thawed_auditor.findings] == \
            [f.to_dict() for f in cold_auditor.findings]

    def test_one_image_seeds_many_identical_futures(self):
        system = build_audit_system(SMALL, _schedule())
        system.run(until=50.0)
        image = capture(system)
        digests = []
        for _ in range(2):
            thawed, _auditor = resume(image)
            assert thawed.sim.now == pytest.approx(image.captured_at)
            thawed.run()
            digests.append(trace_digest(canonical_trace_lines(thawed)))
        assert digests[0] == digests[1]
        # The donor system is untouched by either thaw.
        assert system.sim.now == pytest.approx(50.0)
        system.run()
        assert trace_digest(canonical_trace_lines(system)) == digests[0]

    def test_capture_without_auditor(self):
        system = build_audit_system(SMALL, _schedule())
        system.run(until=40.0)
        image = capture(system)
        thawed, auditor = resume(image)
        assert auditor is None
        thawed.run()
        assert trace_digest(canonical_trace_lines(thawed)) == \
            _cold_digest(_schedule())

    def test_msg_id_allocator_travels_with_the_system(self):
        system = build_audit_system(SMALL, _schedule())
        system.run(until=60.0)
        at_capture = system.msg_ids.position()
        image = capture(system)
        thawed, _ = resume(image)
        # Resume leaves the donor's allocator where it was...
        assert system.msg_ids.position() == at_capture
        # ...because the thawed system carries its own allocator, at
        # the captured position, independent of the donor's.
        assert thawed.msg_ids.position() == at_capture
        assert all(proc.msg_ids is thawed.msg_ids
                   for proc in thawed.process_list())
        assert thawed.msg_ids is not system.msg_ids
        system.run()
        assert thawed.msg_ids.position() == at_capture

    def test_two_images_resume_side_by_side(self):
        """The satellite regression: two thawed systems interleaved in
        one OS process allocate independent, cold-identical sequences.
        """
        sched_a, sched_b = _schedule(4242), _schedule(977)
        images = {}
        for name, sched in (("a", sched_a), ("b", sched_b)):
            system = build_audit_system(SMALL, sched)
            system.run(until=60.0)
            images[name] = capture(system)
        sys_a, _ = resume(images["a"])
        sys_b, _ = resume(images["b"])
        # Interleave the two suffixes in coarse slices; with a shared
        # global allocator either system would perturb the other's ids.
        for stop in (80.0, 100.0, SMALL.horizon):
            sys_a.run(until=stop)
            sys_b.run(until=stop)
        assert trace_digest(canonical_trace_lines(sys_a)) == \
            _cold_digest(sched_a)
        assert trace_digest(canonical_trace_lines(sys_b)) == \
            _cold_digest(sched_b)
        cold_a = build_audit_system(SMALL, sched_a)
        cold_a.run()
        # Same number of ids allocated as the cold run — and the warm
        # sequence started where the capture left off, not at a reset.
        assert sys_a.msg_ids.position() == cold_a.msg_ids.position()
        assert sys_b.msg_ids.position() > 1

    def test_image_metadata(self):
        schedule = _schedule()
        system = build_audit_system(SMALL, schedule)
        system.run(until=30.0)
        image = capture(system)
        assert image.captured_at == pytest.approx(30.0)
        assert image.context.owns(image.dump)
        # Captured into a set under construction, the image is a dump
        # against the set's table, not one of its own.
        later = capture(system, context=image.context)
        assert later.context is image.context
        assert image.context.owns(later.dump)
