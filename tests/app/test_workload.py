"""Unit tests for workload generation and the replayable driver."""

import hashlib

import pytest

from repro.app.workload import (
    Action,
    ActionKind,
    WorkloadConfig,
    WorkloadDriver,
    generate_actions,
)
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class TestConfig:
    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(internal_rate=-1.0)

    def test_rejects_all_zero_rates(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(internal_rate=0, external_rate=0, step_rate=0)

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(horizon=0)


class TestGeneration:
    def config(self):
        return WorkloadConfig(internal_rate=0.05, external_rate=0.01,
                              step_rate=0.02, horizon=20_000.0)

    def test_deterministic_per_seed_and_name(self):
        a = generate_actions(self.config(), RngRegistry(5), "s")
        b = generate_actions(self.config(), RngRegistry(5), "s")
        assert a == b

    #: sha256 of ``index kind gap.hex() stimulus`` lines for stream
    #: ``component1`` under :meth:`config`, as drawn when the stream
    #: was the registry's ``workload.component1``.
    PINNED = {7: (1521, "b6446b9a8701245a7f51b67ed5ac4d21"
                        "25d35101a9e87916dc5e0096580c5ae5"),
              23: (1585, "c3ce46f607ec486f9b2ceba52cb9299f"
                         "8489c824dc2870b013c1ce79a93adbb9")}

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_actions_pinned_and_no_stream_registered(self, seed):
        registry = RngRegistry(seed)
        actions = generate_actions(self.config(), registry, "component1")
        text = "\n".join(f"{a.index} {a.kind.value} {a.gap.hex()} "
                         f"{a.stimulus}" for a in actions)
        assert (len(actions), hashlib.sha256(text.encode()).hexdigest()) \
            == self.PINNED[seed]
        assert not registry._streams

    def test_name_gives_independent_streams(self):
        a = generate_actions(self.config(), RngRegistry(5), "s1")
        b = generate_actions(self.config(), RngRegistry(5), "s2")
        assert a != b

    def test_gaps_reconstruct_increasing_times(self):
        actions = generate_actions(self.config(), RngRegistry(5), "s")
        t = 0.0
        for action in actions:
            assert action.gap >= 0
            t += action.gap
        assert t < 20_000.0

    def test_indices_are_sequential(self):
        actions = generate_actions(self.config(), RngRegistry(5), "s")
        assert [a.index for a in actions] == list(range(len(actions)))

    def test_rates_roughly_match(self):
        actions = generate_actions(self.config(), RngRegistry(5), "s")
        internal = sum(1 for a in actions if a.kind is ActionKind.SEND_INTERNAL)
        expected = 0.05 * 20_000
        assert 0.7 * expected < internal < 1.3 * expected

    def test_zero_rate_kind_is_absent(self):
        config = WorkloadConfig(internal_rate=0.05, external_rate=0.0,
                                step_rate=0.0, horizon=10_000.0)
        actions = generate_actions(config, RngRegistry(5), "s")
        assert all(a.kind is ActionKind.SEND_INTERNAL for a in actions)


class Target:
    """Records performed actions; can trigger driver callbacks inline."""

    def __init__(self, driver=None):
        self.performed = []
        self.driver = driver
        self.on_perform = None

    def perform_action(self, action):
        self.performed.append(action.index)
        if self.on_perform is not None:
            self.on_perform(action)


def make_driver(n=5, gap=1.0):
    sim = Simulator()
    actions = [Action(index=i, kind=ActionKind.LOCAL_STEP, gap=gap, stimulus=i)
               for i in range(n)]
    driver = WorkloadDriver(sim, actions, "t")
    target = Target(driver)
    return sim, driver, target


class TestDriver:
    def test_executes_all_in_order(self):
        sim, driver, target = make_driver()
        driver.start(target)
        sim.run()
        assert target.performed == [0, 1, 2, 3, 4]
        assert driver.exhausted

    def test_gaps_pace_execution(self):
        sim, driver, target = make_driver(n=3, gap=2.0)
        driver.start(target)
        sim.run()
        assert sim.now == pytest.approx(6.0)

    def test_pause_stops_and_resume_continues(self):
        sim, driver, target = make_driver()
        driver.start(target)
        sim.schedule_at(2.5, driver.pause)
        sim.run()
        assert target.performed == [0, 1]
        driver.resume()
        sim.run()
        assert target.performed == [0, 1, 2, 3, 4]

    def test_rewind_re_executes(self):
        sim, driver, target = make_driver()
        driver.start(target)
        sim.run(until=3.5)  # performed 0,1,2
        driver.rewind_to(1)
        sim.run()
        assert target.performed == [0, 1, 2, 1, 2, 3, 4]
        assert driver.executed == 7

    def test_rewind_during_action_wins_over_cursor_advance(self):
        sim, driver, target = make_driver()

        def rewinder(action):
            if action.index == 2 and driver.executed <= 3:
                driver.rewind_to(0)

        target.on_perform = rewinder
        driver.start(target)
        sim.run()
        assert target.performed == [0, 1, 2, 0, 1, 2, 3, 4]

    def test_remaining(self):
        sim, driver, target = make_driver()
        driver.start(target)
        sim.run(until=1.5)
        assert driver.remaining() == 4

    def test_resume_without_pause_is_noop(self):
        sim, driver, target = make_driver()
        driver.start(target)
        driver.resume()
        sim.run()
        assert target.performed == [0, 1, 2, 3, 4]
