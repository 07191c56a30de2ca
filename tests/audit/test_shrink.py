"""Tests for the delta-debugging counterexample shrinker.

These drive the shrinker with *synthetic* predicates (no simulation),
so every search-policy property is checked exactly; the end-to-end
"shrunk schedules still violate on replay" property lives in
``tests/properties/test_shrink_props.py`` and the campaign tests.
"""

from repro.app.faults import HardwareFaultPlan, SoftwareFaultPlan
from repro.audit import (
    FaultSchedule,
    shrink_schedule,
)


def schedule_with(n_software=0, n_crashes=0, windows=False):
    software = tuple(
        SoftwareFaultPlan(activate_at=10.0 + 5.0 * i,
                          deactivate_at=(40.0 + 5.0 * i) if windows else None)
        for i in range(n_software))
    crashes = tuple(
        HardwareFaultPlan(node_id="N2", crash_at=20.0 + 7.0 * i,
                          repair_time=2.0)
        for i in range(n_crashes))
    return FaultSchedule(label="syn", system_seed=1,
                         software=software, crashes=crashes)


class TestDdmin:
    def test_reduces_to_the_single_culprit(self):
        # Only the second crash matters.
        culprit = schedule_with(n_crashes=4).crashes[1]

        def violates(sched):
            return culprit in sched.crashes

        result = shrink_schedule(schedule_with(n_software=3, n_crashes=4),
                                 violates, horizon=100.0, push_times=False)
        assert result.violated
        assert result.schedule.fault_count == 1
        assert result.schedule.crashes == (culprit,)

    def test_keeps_a_required_pair(self):
        sched = schedule_with(n_software=2, n_crashes=2)
        needed_sw = sched.software[0]
        needed_crash = sched.crashes[1]

        def violates(s):
            return needed_sw in s.software and needed_crash in s.crashes

        result = shrink_schedule(sched, violates, horizon=100.0,
                                 push_times=False)
        assert result.violated
        assert result.schedule.fault_count == 2

    def test_non_violating_input_returned_unshrunk(self):
        sched = schedule_with(n_crashes=3)
        result = shrink_schedule(sched, lambda s: False, horizon=100.0)
        assert not result.violated
        assert result.schedule == sched
        assert result.replays == 1  # only the initial confirmation

    def test_shrunk_origin_marked(self):
        sched = schedule_with(n_crashes=3)
        result = shrink_schedule(sched, lambda s: bool(s.crashes),
                                 horizon=100.0, push_times=False)
        assert result.violated
        assert result.schedule.origin == "shrunk"


class TestWindowSimplification:
    def test_drops_unneeded_deactivation_windows(self):
        sched = schedule_with(n_software=2, windows=True)

        def violates(s):
            return len(s.software) >= 1  # windows never matter

        result = shrink_schedule(sched, violates, horizon=100.0,
                                 push_times=False)
        assert all(spec.deactivate_at is None
                   for spec in result.schedule.software)

    def test_keeps_required_window(self):
        sched = schedule_with(n_software=1, windows=True)

        def violates(s):
            return all(spec.deactivate_at is not None for spec in s.software)

        result = shrink_schedule(sched, violates, horizon=100.0,
                                 push_times=False)
        assert result.violated
        assert result.schedule.software[0].deactivate_at is not None


class TestTimePushing:
    def test_pushes_crash_to_the_latest_violating_time(self):
        sched = schedule_with(n_crashes=1)

        def violates(s):
            return bool(s.crashes) and s.crashes[0].crash_at <= 60.0

        result = shrink_schedule(sched, violates, horizon=100.0,
                                 max_replays=100)
        assert result.violated
        assert 55.0 <= result.schedule.crashes[0].crash_at <= 60.0

    def test_budget_bounds_the_search(self):
        calls = []

        def violates(s):
            calls.append(1)
            return True

        shrink_schedule(schedule_with(n_software=2, n_crashes=3, windows=True),
                        violates, horizon=1000.0, max_replays=7)
        assert len(calls) <= 7


class TestVerdictMemo:
    def test_repeat_candidates_answered_without_replay(self):
        from repro.audit.shrink import _Budget
        calls = []

        def violates(s):
            calls.append(1)
            return bool(s.crashes)

        budget = _Budget(violates, max_replays=10)
        sched = schedule_with(n_crashes=1)
        assert budget.check(sched)
        assert budget.check(sched)  # identical candidate: memo answers
        assert len(calls) == 1
        assert budget.replays == 1
        assert budget.cache_hits == 1

    def test_memo_answers_after_budget_exhaustion(self):
        from repro.audit.shrink import _Budget
        budget = _Budget(lambda s: True, max_replays=1)
        known = schedule_with(n_crashes=1)
        assert budget.check(known)
        assert budget.exhausted
        # A fresh candidate is refused (no budget left)...
        assert not budget.check(schedule_with(n_crashes=2))
        # ...but the paid-for verdict stays available, and free.
        assert budget.check(known)
        assert budget.replays == 1
        assert budget.cache_hits == 1

    def test_distinct_candidates_are_distinct_keys(self):
        from repro.audit.shrink import _Budget
        calls = []

        def violates(s):
            calls.append(1)
            return True

        budget = _Budget(violates, max_replays=10)
        budget.check(schedule_with(n_crashes=1))
        budget.check(schedule_with(n_crashes=2))
        assert len(calls) == 2
        assert budget.cache_hits == 0

    def test_cache_hits_surfaced_in_result(self):
        result = shrink_schedule(schedule_with(n_crashes=2),
                                 lambda s: bool(s.crashes), horizon=100.0,
                                 push_times=False)
        assert result.cache_hits >= 0
        assert result.to_dict()["cache_hits"] == result.cache_hits

    def test_replays_count_only_real_evaluations(self):
        calls = []

        def violates(s):
            calls.append(1)
            return bool(s.crashes) and s.crashes[0].crash_at <= 60.0

        result = shrink_schedule(schedule_with(n_crashes=1), violates,
                                 horizon=100.0, max_replays=100)
        assert result.replays == len(calls)
