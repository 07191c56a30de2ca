"""Unit tests for crashable nodes."""

from repro.checkpoint import Checkpoint
from repro.types import CheckpointKind, ProcessId


def make_ckpt(pid="P", epoch=None):
    return Checkpoint.capture(ProcessId(pid), CheckpointKind.TYPE_1,
                              state={"x": 1}, taken_at=0.0, work_done=0.0,
                              epoch=epoch)


class TestCrash:
    def test_crash_sets_flag(self, make_node):
        node = make_node()
        node.crash()
        assert node.crashed

    def test_crash_erases_volatile(self, make_node):
        node = make_node()
        node.volatile.save(make_ckpt())
        node.crash()
        assert node.volatile.peek(ProcessId("P")) is None

    def test_crash_preserves_stable(self, make_node):
        node = make_node()
        node.stable.save(make_ckpt(epoch=1))
        node.crash()
        assert node.stable.peek(ProcessId("P")) is not None

    def test_crash_cancels_timers(self, make_node, sim):
        node = make_node()
        fired = []
        node.timers.set_alarm_after(1.0, lambda: fired.append(1))
        node.crash()
        sim.run()
        assert fired == []

    def test_crash_notifies_listeners_once(self, make_node):
        node = make_node()
        seen = []
        node.on_crash(seen.append)
        node.crash()
        node.crash()
        assert seen == [node]

    def test_crash_count(self, make_node):
        node = make_node()
        node.crash()
        node.restart()
        node.crash()
        assert node.crash_count == 2


class TestRestart:
    def test_restart_clears_flag(self, make_node):
        node = make_node()
        node.crash()
        node.restart()
        assert not node.crashed

    def test_restart_notifies_listeners(self, make_node):
        node = make_node()
        seen = []
        node.on_restart(seen.append)
        node.crash()
        node.restart()
        assert seen == [node]

    def test_restart_without_crash_is_noop(self, make_node):
        node = make_node()
        seen = []
        node.on_restart(seen.append)
        node.restart()
        assert seen == []

    def test_restart_resynchronizes_clock(self, make_node, sim):
        node = make_node()
        sim.schedule_at(1000.0, lambda: None)
        sim.run()
        node.crash()
        node.restart()
        assert node.clock.elapsed_since_resync() == 0.0
