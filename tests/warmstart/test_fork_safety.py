"""Fork safety on the warm path: one table, any number of resumes.

Every image of a set is a dump against the set's one shared-object
table, so the table's objects are shared *by identity* between the
reference while it is still advancing, every resume and every shrink
replay, in any order.  These tests hold the rule of
:mod:`repro.warmstart.image` to that: nothing a run mutates is in the
table, and nothing two resumes can both write is shared between them.
"""

import collections
import dataclasses
import gc
import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.global_state import view_from_checkpoint
from repro.audit.auditor import OnlineAuditor
from repro.audit.campaign import build_audit_system, start_fresh
from repro.audit.config import AuditConfig
from repro.audit.generator import reference_timeline
from repro.audit.golden import canonical_trace_lines, trace_digest
from repro.audit.schedule import SYSTEM_NODES, CrashSpec, FaultSchedule, \
    SoftwareFaultSpec
from repro.checkpoint import Checkpoint
from repro.errors import AuditViolation
from repro.flock import ForkTemplate
from repro.snapshot.sections import SectionPayload
from repro.warmstart import (
    ForkContext,
    ImageStore,
    PrefixKey,
    build_image_set,
    capture,
    capture_times,
    collect_shared,
    resume,
    share_schedule_seeds,
)

CONFIGS = {scheme: AuditConfig(scheme=scheme, seed=11, schedules=8,
                               horizon=120.0, tb_interval=20.0)
           for scheme in ("coordinated", "naive")}


def _seed(config) -> int:
    return share_schedule_seeds(
        config, [FaultSchedule(label="probe", system_seed=0,
                               origin="test")])[0].system_seed


def _table_digest(context: ForkContext, length: int) -> str:
    """Everything reachable from the table's first ``length`` objects."""
    return hashlib.sha256(
        pickle.dumps(context._objects[:length])).hexdigest()


def _drain(system, auditor):
    try:
        system.run()
    except AuditViolation:
        pass
    try:
        auditor.finalize()
    except AuditViolation:
        pass
    return (trace_digest(canonical_trace_lines(system)),
            [f.to_dict() for f in auditor.findings])


def _cold(config, sched):
    system = build_audit_system(config, sched)
    return _drain(system, OnlineAuditor(system, fail_fast=False))


class BuiltSet:
    """One image set built the way ``build_image_set`` builds it, with
    the table's digest noted at every capture."""

    def __init__(self, config) -> None:
        self.config = config
        self.seed = _seed(config)
        probe = FaultSchedule(label="ref", system_seed=self.seed,
                              origin="test")
        system, auditor = start_fresh(config, probe, fail_fast=False)
        self.context = ForkContext()
        self.images = []
        #: ``(table length, digest)`` right after each capture.
        self.marks = []
        seen = 0
        for t in capture_times(config, reference_timeline(config)):
            system.run(until=t)
            seen = collect_shared(self.context, system, auditor, seen)
            self.images.append(capture(system, auditor,
                                       context=self.context))
            self.marks.append((len(self.context), _table_digest(
                self.context, len(self.context))))
        # The reference runs on, past its last capture, to the horizon.
        system.run()

    def assert_table_untouched(self) -> None:
        for length, digest in self.marks:
            assert _table_digest(self.context, length) == digest


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def built(request):
    return BuiltSet(CONFIGS[request.param])


def test_reference_advancement_leaves_earlier_captures_table_alone(built):
    assert len(built.images) > 5
    lengths = [length for length, _digest in built.marks]
    assert lengths == sorted(lengths) and lengths[-1] > lengths[0]
    built.assert_table_untouched()


def test_template_thawed_from_an_image_adopts_and_only_appends(built):
    """``ForkTemplate.from_image`` takes the set's table as its own:
    the thawed reference finds everything registered, and advancing it
    past later captures leaves what they decode against untouched."""
    before = len(built.context)
    template = ForkTemplate.from_image(built.images[1])
    assert template.context is built.context
    # Only the thawed reference's own RNG snapshots are new.
    streams = len(template.system.rng._streams)
    assert len(built.context) - before <= streams
    template.advance_to(built.config.horizon - 1.0)
    assert len(built.context) > before + streams
    built.assert_table_untouched()
    image = built.images[len(built.images) // 2]
    sched = FaultSchedule(
        label="late", system_seed=built.seed,
        crashes=(CrashSpec(node_id="N2", crash_at=image.captured_at + 3.0,
                           repair_time=2.0),), origin="test")
    system, auditor = resume(image, fail_fast=False)
    sched.arm(system)
    assert _drain(system, auditor) == _cold(built.config, sched)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_property_resumes_in_any_order_equal_cold(built, data):
    """Shuffled, repeated, non-ascending resumes with faults armed:
    each equals its cold run, and the table never changes."""
    config, images = built.config, built.images
    picks = data.draw(st.lists(st.integers(0, len(images) - 1),
                               min_size=4, max_size=7), label="order")
    picks.append(picks[0])                      # at least one repeat
    picks.append(max(picks))                    # ... and one step back up
    picks.append(min(picks))                    # ... and down again
    for n, pick in enumerate(picks):
        image = images[pick]
        # Strictly after the image, whole seconds clear of the horizon.
        earliest = int(image.captured_at) + 1
        at = float(data.draw(st.integers(
            earliest, max(earliest, int(config.horizon) - 5)), label=f"t{n}"))
        if data.draw(st.booleans(), label=f"software{n}"):
            sched = FaultSchedule(
                label=f"sw{n}", system_seed=built.seed, origin="test",
                software=(SoftwareFaultSpec(activate_at=at),))
        else:
            sched = FaultSchedule(
                label=f"hw{n}", system_seed=built.seed, origin="test",
                crashes=(CrashSpec(
                    node_id=data.draw(st.sampled_from(SYSTEM_NODES),
                                      label=f"node{n}"),
                    crash_at=at, repair_time=2.0),))
        system, auditor = resume(image, fail_fast=False)
        sched.arm(system)
        assert _drain(system, auditor) == _cold(config, sched)
    built.assert_table_untouched()


def test_two_resumes_of_one_image_share_nothing_mutable(built):
    image = built.images[len(built.images) // 2]
    one, _ = resume(image)
    two, _ = resume(image)
    fresh, _ = resume(image)

    # RNG streams: drawing from one copy's registry moves no other's.
    assert one.rng._streams.keys() == two.rng._streams.keys()
    for name, stream in one.rng._streams.items():
        assert stream is not two.rng._streams[name]
    drawn = {name: [stream.random() for _ in range(3)]
             for name, stream in one.rng._streams.items()}
    for name, stream in two.rng._streams.items():
        assert [stream.random() for _ in range(3)] == drawn[name]
    assert one.msg_ids is not two.msg_ids

    # Journals: a record appended to one copy's journals is in no
    # other's, and the containers themselves are private.
    for ours, theirs, untouched in zip(one.process_list(),
                                       two.process_list(),
                                       fresh.process_list()):
        for attr in ("journal_sent", "journal_recv"):
            journal, other = getattr(ours, attr), getattr(theirs, attr)
            assert journal._records is not other._records
            assert other == getattr(untouched, attr)
            size = len(other)
            donor = next(iter(journal._records.values()), None)
            if donor is None:
                continue
            journal._records[("appended", attr)] = dataclasses.replace(
                donor, key=("appended", attr), validated=False)
            assert len(journal) == size + 1 and len(other) == size
            assert other == getattr(untouched, attr)

    # The trace and event heap are private too: running one copy on
    # leaves the other where it was.
    records = len(two.trace._records)
    one.run(until=one.sim.now + 5.0)
    assert len(two.trace._records) == records
    assert two.sim.now == pytest.approx(image.captured_at)
    built.assert_table_untouched()


def test_dump_is_rejected_against_another_sets_table():
    """Two real sets of one config, two seeds: an image paired with the
    other set's table is refused, never thawed into a chimera."""
    config = CONFIGS["coordinated"]
    times = capture_times(config)[:3]
    ours = build_image_set(config, 1, times=times)
    theirs = build_image_set(config, 2, times=times)
    assert len(theirs[-1].context) >= len(ours[0].context)
    with pytest.raises(ValueError):
        resume(dataclasses.replace(ours[0], context=theirs[-1].context))
    system, _ = resume(ours[0])
    assert system.config.seed == 1


# ----------------------------------------------------------------------
# shared rollbacks: a prefix section resolves once, on its payload, and
# every copy that rolls back to it takes containers of its own
# ----------------------------------------------------------------------
def _section_payloads(context: ForkContext):
    """Every section payload the table reaches: its checkpoints' own,
    the encoders' tips, and the delta chains behind them."""
    seen = {}
    for obj in context._objects:
        if isinstance(obj, Checkpoint):
            nodes = obj.payload.sections
        elif isinstance(obj, SectionPayload):
            nodes = (obj,)
        else:
            continue
        for node in nodes:
            while node is not None and id(node) not in seen:
                seen[id(node)] = node
                node = node.base
    return list(seen.values())


def _resolved_digests(context: ForkContext):
    """``id(payload) -> digest`` of every resolved value riding on a
    payload of the table."""
    return {id(payload): hashlib.sha256(
                pickle.dumps(vars(payload)["_resolved"])).hexdigest()
            for payload in _section_payloads(context)
            if "_resolved" in vars(payload)}


def _crash_heavy(data, n, seed, earliest, horizon):
    """Crashes only, the same node twice in a row included: the second
    rollback of each process comes from the payload the first used,
    unless an establishment fell in between."""
    node = data.draw(st.sampled_from(SYSTEM_NODES), label=f"node{n}")
    at = float(data.draw(st.integers(earliest, max(earliest, horizon - 16)),
                         label=f"t{n}"))
    crashes = [CrashSpec(node_id=node, crash_at=at, repair_time=2.0),
               CrashSpec(node_id=node, crash_at=at + 5.0, repair_time=2.0)]
    if data.draw(st.booleans(), label=f"other{n}"):
        other = data.draw(st.sampled_from(SYSTEM_NODES), label=f"node{n}b")
        if other != node:
            crashes.append(CrashSpec(node_id=other, crash_at=at + 9.0,
                                     repair_time=2.0))
    return FaultSchedule(label=f"hw{n}", system_seed=seed, origin="test",
                         crashes=tuple(crashes))


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_property_rollbacks_leave_resolved_sections_and_table_alone(
        built, data):
    """Resumes and template forks that crash and roll back (validating,
    pruning, discarding, appending and reclaiming from then on), in
    shuffled repeated order: every run equals cold, and no value a
    payload resolved to — nor the table — ever changes."""
    config, images = built.config, built.images
    picks = data.draw(st.lists(st.integers(0, len(images) - 1),
                               min_size=3, max_size=5), label="order")
    picks += [picks[0], max(picks), min(picks)]
    known = _resolved_digests(built.context)
    rollbacks = 0
    for n, pick in enumerate(picks):
        image = images[pick]
        sched = _crash_heavy(data, n, built.seed,
                             int(image.captured_at) + 1, int(config.horizon))
        if data.draw(st.booleans(), label=f"fork{n}"):
            system, auditor = ForkTemplate.from_image(image).fork(
                fail_fast=False)
        else:
            system, auditor = resume(image, fail_fast=False)
        sched.arm(system)
        assert _drain(system, auditor) == _cold(config, sched)
        rollbacks += sum(proc.counters.get("rollback.hardware")
                         for proc in system.process_list())
        system.release()        # as the campaign runner does: its own only
        now = _resolved_digests(built.context)
        assert {pid: now.get(pid) for pid in known} == known
        known = now
    assert rollbacks >= len(picks) and known
    built.assert_table_untouched()


def _mixed_checkpoint(system) -> Checkpoint:
    """A stable checkpoint whose journals hold validated and
    unvalidated records both."""
    for node in system.nodes.values():
        for chain in node.stable._chain.values():
            for checkpoint in chain:
                state = checkpoint.restore_state()
                flags = {rec.validated for journal in (state.journal_sent,
                                                       state.journal_recv)
                         for rec in journal.records()}
                if flags == {True, False}:
                    return checkpoint
    raise AssertionError("no checkpoint with both kinds of record")


def test_two_rollbacks_from_one_payload_own_their_containers():
    config = CONFIGS["naive"]
    system, _ = start_fresh(config, FaultSchedule(
        label="ref", system_seed=_seed(config), origin="test"),
        fail_fast=False)
    system.run(until=100.0)
    checkpoint = _mixed_checkpoint(system)
    resolved = {id(p): vars(p)["_resolved"]
                for p in checkpoint.payload.sections if "_resolved" in vars(p)}
    assert len(resolved) == 2                       # journals, msg_log
    pristine = pickle.dumps(list(resolved.values()))

    one, two = checkpoint.restore_state(), checkpoint.restore_state()
    assert one == two
    shared = unshared = 0
    for attr in ("journal_sent", "journal_recv"):
        ours, theirs = getattr(one, attr), getattr(two, attr)
        assert ours is not theirs and ours._records is not theirs._records
        for key, rec in ours._records.items():
            if rec.validated:
                assert rec is theirs._records[key]
                shared += 1
            else:
                assert rec is not theirs._records[key]
                unshared += 1
    assert shared and unshared
    assert one.msg_log is not two.msg_log
    assert one.msg_log._entries is not two.msg_log._entries
    # Neither is the remembered value itself, container for container.
    for value, _unvalidated in resolved.values():
        for field, kept in value.items():
            for copy in (one, two):
                assert getattr(copy, field) is not kept
                inner = "_records" if hasattr(kept, "_records") else "_entries"
                assert getattr(getattr(copy, field), inner) \
                    is not getattr(kept, inner)

    # Everything a restored process then does to its journals and log.
    reference = checkpoint.restore_state()
    for journal in (one.journal_sent, one.journal_recv):
        for sender in {rec.sender for rec in journal.records()}:
            journal.mark_validated(sender)
        journal.prune_validated_before(50.0)
        journal.discard(journal.keys()[:2])
        journal._records[("appended",)] = dataclasses.replace(
            next(iter(reference.journal_sent._records.values())),
            key=("appended",), validated=False)
    one.msg_log.reclaim_up_to(10 ** 6)
    one.msg_log.append(10 ** 6 + 1, None)
    assert one != reference
    assert two == reference == checkpoint.restore_state()
    assert pickle.dumps(list(resolved.values())) == pristine


def test_resolved_values_stay_out_of_images_and_dumps():
    """The ``test_cursors_stay_out_of_images`` pattern: what payloads
    remember changes neither a dump, nor a set's blob, nor
    ``flock.dump_bytes``."""
    config = CONFIGS["coordinated"]
    seed = _seed(config)

    def frozen(resolve: bool):
        system, auditor = start_fresh(config, FaultSchedule(
            label="ref", system_seed=seed, origin="test"), fail_fast=False)
        system.run(until=90.0)
        context = ForkContext()
        collect_shared(context, system)
        for obj in context._objects:
            if resolve and isinstance(obj, Checkpoint):
                obj.restore_state()
        if not resolve:  # the online auditor's reads resolved a few
            for payload in _section_payloads(context):
                vars(payload).pop("_resolved", None)
        carried = len(_resolved_digests(context))
        image = capture(system, auditor)
        store = ImageStore()
        store.put(PrefixKey("abc", seed), [image])
        template = ForkTemplate(system, auditor)
        template.dump()
        return carried, (len(image.dump), store.stats()["bytes"],
                         template.stats()["dump_bytes"])

    none, bare = frozen(resolve=False)
    many, carrying = frozen(resolve=True)
    assert none == 0 and many > 10
    assert carrying == bare


def _remembered_views(context: ForkContext):
    return [vars(obj)["_view"] for obj in context._objects
            if isinstance(obj, Checkpoint) and vars(obj).get("_view")]


def test_remembered_views_stay_out_of_images_and_dumps():
    """The ``test_resolved_values_stay_out_of_images_and_dumps``
    pattern: the views a table's checkpoints remember change neither a
    dump, nor a set's blob, nor ``flock.dump_bytes`` — and only a
    checkpoint a table owns remembers one."""
    config = CONFIGS["coordinated"]
    probe = FaultSchedule(label="ref", system_seed=_seed(config),
                          origin="test")

    def frozen(remember: bool):
        template = ForkTemplate.from_reference(config, probe)
        assert template.advance_to(90.0, {30.0, 61.0})
        owned = [obj for obj in template.context._objects
                 if isinstance(obj, Checkpoint)]
        # The reference's own auditor checked these lines before the
        # table owned them: nothing was kept.
        assert owned and not _remembered_views(template.context)
        for checkpoint in owned if remember else ():
            assert view_from_checkpoint(checkpoint) \
                is view_from_checkpoint(checkpoint)
        image = template.dump()
        store = ImageStore()
        store.put(PrefixKey("abc", probe.system_seed), [image])
        assert template.dump_positions() == [30.0, 61.0, 90.0]
        return len(_remembered_views(template.context)), (
            len(image.dump), store.stats()["bytes"],
            template.stats()["dump_bytes"])

    none, bare = frozen(remember=False)
    many, carrying = frozen(remember=True)
    assert none == 0 and many > 10
    assert carrying == bare

    template = ForkTemplate.from_reference(config, probe)
    template.advance_to(30.0)
    checkpoint = next(obj for obj in template.context._objects
                      if isinstance(obj, Checkpoint))
    view = view_from_checkpoint(checkpoint)
    assert vars(checkpoint)["_view"] is view
    for copy in (pickle.loads(pickle.dumps(checkpoint)),
                 dataclasses.replace(checkpoint)):
        assert copy == checkpoint and "_view" not in vars(copy)
        assert view_from_checkpoint(copy) is not view_from_checkpoint(copy)


@pytest.mark.parametrize("start", ["cold", "thawed", "forked"])
def test_release_hands_a_finished_run_back_by_reference_count(built, start):
    """However a schedule started, ``release()`` leaves nothing for the
    cycle collector — skeleton included — and clears only the run's
    own: the table, and a cold run's checkpoints while it lasts, are
    as they were."""
    config = built.config
    image = built.images[len(built.images) // 2]
    at = image.captured_at + 3.0
    sched = FaultSchedule(
        label="rel", system_seed=built.seed, origin="test",
        software=(SoftwareFaultSpec(activate_at=at),),
        crashes=(CrashSpec(node_id="N2", crash_at=at + 6.0,
                           repair_time=2.0),))
    expected = _cold(config, sched)
    template = ForkTemplate.from_image(image) if start == "forked" else None
    gc.collect()
    gc.disable()
    try:
        if start == "cold":
            system, auditor = start_fresh(config, sched, fail_fast=False)
        else:
            system, auditor = (template.fork(fail_fast=False) if template
                               else resume(image, fail_fast=False))
            sched.arm(system)
        outcome = _drain(system, auditor)
        if start == "cold":
            # No table owns a cold run's checkpoints: the auditor's
            # views died with the check that built them.
            assert not any(
                "_view" in vars(checkpoint)
                for node in system.nodes.values()
                for chain in (node.volatile._latest.values(),
                              *node.stable._chain.values())
                for checkpoint in chain)
        system.release()
        del system, auditor
        gc.set_debug(gc.DEBUG_SAVEALL)
        leaked = gc.collect()
        kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()
    assert leaked == 0, kinds.most_common(12)
    assert outcome == expected
    built.assert_table_untouched()
