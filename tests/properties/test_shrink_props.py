"""Property-based tests for the counterexample shrinker.

The shrinker's contract: given any deterministic ``violates`` predicate
and any violating input schedule, the result (a) still violates, (b) is
never larger than the input, and (c) was found within the replay
budget.  Hypothesis drives this with synthetic predicates ("these
specific faults are jointly required"), which model how a real
violation depends on a sub-multiset of the injected faults.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan  # noqa: E402
from repro.audit import (  # noqa: E402
    FaultSchedule,
    shrink_schedule,
)

HORIZON = 500.0

software_specs = st.builds(
    SoftwareFaultPlan,
    activate_at=st.floats(min_value=10.0, max_value=HORIZON * 0.8),
    deactivate_at=st.one_of(
        st.none(),
        st.floats(min_value=HORIZON * 0.8 + 1.0, max_value=HORIZON)))

crash_specs = st.builds(
    HardwareFaultPlan,
    node_id=st.sampled_from(["N1a", "N1b", "N2"]),
    crash_at=st.floats(min_value=10.0, max_value=HORIZON * 0.9),
    repair_time=st.floats(min_value=0.5, max_value=5.0))

schedules = st.builds(
    FaultSchedule,
    label=st.just("prop"),
    system_seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    software=st.lists(software_specs, max_size=4).map(tuple),
    crashes=st.lists(crash_specs, max_size=4).map(tuple))


@st.composite
def schedule_and_required(draw):
    """A schedule plus a non-empty required fault subset."""
    sched = draw(schedules.filter(lambda s: s.fault_count > 0))
    faults = list(sched.software) + list(sched.crashes)
    required = draw(st.sets(st.sampled_from(range(len(faults))),
                            min_size=1, max_size=len(faults)))
    return sched, frozenset(faults[i] for i in required)


def requires(required):
    """The predicate: violation iff every required fault survives."""
    def violates(sched):
        present = set(sched.software) | set(sched.crashes)
        return required <= present
    return violates


class TestShrinkProperties:
    @given(schedule_and_required())
    @settings(max_examples=60, deadline=None)
    def test_shrunk_still_violates_and_never_grows(self, case):
        sched, required = case
        result = shrink_schedule(sched, requires(required), horizon=HORIZON,
                                 push_times=False, max_replays=200)
        assert result.violated
        assert requires(required)(result.schedule)
        assert result.schedule.fault_count <= sched.fault_count
        assert result.schedule.fault_count >= len(required)

    @given(schedule_and_required())
    @settings(max_examples=30, deadline=None)
    def test_single_requirement_shrinks_to_one_fault(self, case):
        sched, required = case
        if len(required) != 1:
            required = frozenset(list(required)[:1])
        result = shrink_schedule(sched, requires(required), horizon=HORIZON,
                                 push_times=False, max_replays=300)
        assert result.violated
        assert result.schedule.fault_count == 1

    @given(schedules, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_replay_budget_is_a_hard_cap(self, sched, budget):
        calls = []

        def counting(s):
            calls.append(1)
            return True

        shrink_schedule(sched, counting, horizon=HORIZON,
                        max_replays=budget)
        assert len(calls) <= budget

    @given(schedules)
    @settings(max_examples=30, deadline=None)
    def test_non_violating_input_untouched(self, sched):
        result = shrink_schedule(sched, lambda s: False, horizon=HORIZON)
        assert not result.violated
        assert result.schedule == sched
