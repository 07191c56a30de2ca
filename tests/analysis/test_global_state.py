"""Unit tests for global-state capture."""

from repro.analysis.global_state import (
    common_stable_line,
    live_line,
    live_view,
    stable_line,
    view_from_checkpoint,
    volatile_line,
)
from repro.app.faults import SoftwareFaultPlan
from repro.app.workload import WorkloadConfig
from repro.coordination.scheme import Scheme, SystemConfig, build_system
from repro.tb.blocking import TbConfig


def run_system(scheme=Scheme.COORDINATED, horizon=100.0, seed=5, run=True):
    config = SystemConfig(
        scheme=scheme, seed=seed, horizon=horizon,
        tb=TbConfig(interval=10.0),
        workload1=WorkloadConfig(internal_rate=0.2, external_rate=0.05,
                                 step_rate=0.02, horizon=horizon),
        workload2=WorkloadConfig(internal_rate=0.1, external_rate=0.05,
                                 step_rate=0.02, horizon=horizon),
        stable_history=100)
    system = build_system(config)
    if run:
        system.run()
    return system


class TestViews:
    def test_view_from_checkpoint_unpickles(self):
        system = run_system()
        checkpoint = system.peer.node.stable.latest(system.peer.process_id)
        view = view_from_checkpoint(checkpoint)
        assert view.process_id == system.peer.process_id
        assert view.epoch == checkpoint.epoch
        assert view.work_done == checkpoint.work_done

    def test_live_view_reflects_current_state(self):
        system = run_system()
        view = live_view(system.peer)
        assert view.kind == "live"
        assert view.work_done == system.peer.progress
        assert view.snapshot.app_state.value == system.peer.component.state.value

    def test_dirty_bit_comes_from_snapshot(self):
        system = run_system()
        view = live_view(system.peer)
        assert view.dirty_bit == system.peer.mdcd.dirty_bit

    def test_truly_corrupt_reads_ground_truth(self):
        system = run_system()
        assert not live_view(system.peer).truly_corrupt


class TestLines:
    def test_stable_line_covers_all_processes(self):
        system = run_system()
        line = stable_line(system)
        assert len(line) == 3

    def test_stable_line_epoch_selection(self):
        system = run_system()
        line = stable_line(system, epoch=3)
        assert all(v.epoch == 3 for v in line.values())

    def test_stable_line_missing_epoch_falls_back_to_oldest_retained(self):
        system = run_system()
        line = stable_line(system, epoch=10_000)
        assert len(line) == 3
        for proc in system.process_list():
            history = proc.node.stable.history(proc.process_id)
            assert len(history) > 1
            assert line[proc.process_id].epoch == history[0].epoch

    def test_common_stable_line_uses_min_epoch(self):
        system = run_system()
        line = common_stable_line(system)
        epochs = {v.epoch for v in line.values()}
        assert len(epochs) == 1

    def test_volatile_line_skips_processes_without_checkpoint(self):
        system = run_system(horizon=1.0)  # nothing happened yet
        assert volatile_line(system) == {}

    def test_live_line_has_everyone(self):
        system = run_system()
        assert len(live_line(system)) == 3

    def test_deposed_excluded_from_lines(self):
        system = run_system(horizon=400.0, run=False)
        system.inject_software_fault(SoftwareFaultPlan(activate_at=100.0))
        system.run(until=400.0)
        assert system.active.deposed
        assert system.active.process_id not in live_line(system)
        assert system.active.process_id not in stable_line(system)
