"""Fork-context tests: shared-table growth, dump stability, registry."""

import pickle

import pytest

from repro.audit.campaign import build_audit_system
from repro.audit.config import AuditConfig
from repro.audit.schedule import FaultSchedule
from repro.warmstart.image import (
    SHARED_STR_MIN,
    ForkContext,
    collect_shared,
)

SMALL = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                    horizon=120.0, tb_interval=20.0)


def _reference_system(until: float = 40.0):
    sched = FaultSchedule(label="ref", system_seed=3, origin="test")
    system = build_audit_system(SMALL, sched)
    system.run(until=until)
    return system


class TestForkContext:
    def test_share_round_trip_preserves_identity(self):
        context = ForkContext()
        shared = {"k": [1, 2, 3]}
        context.share(shared)
        data = context.dumps({"inner": shared, "plain": [4, 5]})
        state = context.loads(data)
        assert state["inner"] is shared          # shared: same object
        assert state["plain"] == [4, 5]          # private: fresh copy

    def test_table_is_grow_only(self):
        """Dumps taken early must stay decodable after the table grows
        — the shrink path forks from dumps cached before later
        advancement registered more shared objects."""
        context = ForkContext()
        first = {"gen": 1}
        context.share(first)
        early = context.dumps({"ref": first})
        for i in range(50):
            context.share({"gen": i + 2})
        assert context.loads(early)["ref"] is first

    def test_long_strings_are_interned(self):
        context = ForkContext()
        label = "x" * (SHARED_STR_MIN + 4)
        context.share(label)
        out = context.loads(context.dumps({"label": label}))
        assert out["label"] is label

    def test_short_strings_stay_inline(self):
        """Sub-threshold strings are not worth a table indirection."""
        context = ForkContext()
        label = "ab"
        context.share(label)
        data = context.dumps({"label": label})
        assert context.loads(data)["label"] == "ab"

    def test_dump_is_rejected_against_another_table(self):
        """Same length, same kind of entries — the references would
        resolve, to the wrong objects.  Refused instead."""
        ours, theirs = ForkContext(), ForkContext()
        mine, other = {"owner": "ours"}, {"owner": "theirs"}
        ours.share(mine)
        theirs.share(other)
        data = ours.dumps({"ref": mine})
        assert ours.owns(data) and not theirs.owns(data)
        with pytest.raises(ValueError):
            theirs.loads(data)
        assert not ours.owns(data[:5])

    def test_dump_is_rejected_against_a_shorter_table(self):
        context = ForkContext()
        context.share({"gen": 1})
        early = pickle.loads(pickle.dumps(context))
        late = {"gen": 2}
        context.share(late)
        data = context.dumps({"ref": late})
        assert early.tag == context.tag and not early.owns(data)
        with pytest.raises(ValueError):
            early.loads(data)

    def test_pickled_table_decodes_its_dumps_and_keeps_growing(self):
        """What a worker reads back from an image-set blob: the copy
        resolves every dump of the original, and a template adopting
        it registers nothing twice."""
        context = ForkContext()
        shared = {"k": [1, 2, 3]}
        label = "y" * (SHARED_STR_MIN + 1)
        context.share(shared)
        data = context.dumps({"inner": shared, "label": label})
        copy = pickle.loads(pickle.dumps(context))
        assert len(copy) == len(context)
        state = copy.loads(data)
        assert state["inner"] == shared and state["inner"] is not shared
        before = len(copy)
        copy.share(state["inner"])
        assert copy.dumps({"label": label}) and len(copy) == before
        extra = {"gen": 2}
        copy.share(extra)
        assert copy.loads(copy.dumps({"e": extra}))["e"] is extra
        assert copy.loads(data)["inner"] is state["inner"]

    def test_unshared_objects_copy(self):
        context = ForkContext()
        private = {"mutable": True}
        out = context.loads(context.dumps({"p": private}))
        assert out["p"] == private and out["p"] is not private


class TestCollectShared:
    def test_registers_config_and_prefix_state(self):
        system = _reference_system()
        context = ForkContext()
        seen = collect_shared(context, system)
        assert len(context) > 0
        assert seen == len(system.trace._records)

    def test_incremental_trace_registration(self):
        system = _reference_system(until=30.0)
        context = ForkContext()
        seen = collect_shared(context, system)
        before = len(context)
        system.run(until=60.0)
        seen2 = collect_shared(context, system, trace_seen=seen)
        assert seen2 == len(system.trace._records) > seen
        assert len(context) > before

    def test_forked_copy_shares_trace_records_not_the_list(self):
        system = _reference_system()
        context = ForkContext()
        collect_shared(context, system)
        copy = context.loads(context.dumps({"system": system}))["system"]
        assert copy.trace._records is not system.trace._records
        assert all(a is b for a, b in zip(copy.trace._records,
                                          system.trace._records))
        # Suffix records appended to the copy never touch the template.
        n = len(system.trace._records)
        copy.run(until=50.0)
        assert len(system.trace._records) == n
