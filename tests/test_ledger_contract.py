"""What the frozen campaign ledger needs of ``src/``.

``benchmarks/e2e/`` may not change in a PR that changes ``src/``, and
its per-layer driver (``layers.py``, reached only by ``run.py --trace``,
which tier-1 never runs) drives the runners through finer calls than
``run_audit``.  These tests hold the names it imports, the methods it
calls and the stats keys it reads, so they cannot rot unnoticed.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from repro.app.faults import HardwareFaultPlan
from repro.audit import AuditConfig, FaultSchedule, run_audit
from repro.audit.campaign import SHRINK_MAX_REPLAYS
from repro.audit.shrink import shrink_schedule
from repro.flock import FlockRunner
from repro.warmstart import ImageStore, WarmRunner, share_schedule_seeds

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: ``campaign_counters``: the keys read per workload kind.
WARM_KEYS = ("warm_runs", "cold_runs", "sets_built", "build_seconds",
             "decode_seconds", "run_seconds", "bytes")
FLOCK_KEYS = ("flock_runs", "build_seconds", "decode_seconds",
              "advance_seconds", "fork_seconds", "run_seconds",
              "dump_encode_seconds", "dumps", "forks", "dump_bytes", "bytes")

CONFIG = AuditConfig(scheme="naive", seed=7, schedules=4, horizon=120.0,
                     tb_interval=20.0)


def _schedules():
    return share_schedule_seeds(CONFIG, [
        FaultSchedule(label=f"c{at}", system_seed=0, origin="test",
                      crashes=(HardwareFaultPlan(node_id="N2",
                                                 crash_at=float(at),
                                                 repair_time=2.0),))
        for at in (95, 40, 70, 41)])


def _imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


@pytest.mark.parametrize("script", ["layers.py", "measure.py",
                                    "workloads.py", "run.py"])
def test_everything_the_ledger_imports_is_there(script):
    found = list(_imports(LEDGER / script))
    assert found, script
    for module, name in found:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), (module, name)


def test_warm_runner_is_driven_the_way_the_layer_driver_drives_it():
    schedules = _schedules()
    runner = WarmRunner(CONFIG, store=ImageStore(), timeline=None)
    runner.plan(schedules)
    outcomes = []
    for sched in schedules:                     # list order, not plan order
        assert runner.ensure_images(sched) is True
        outcomes.append(runner.audit_schedule(sched, fail_fast=True))
    assert "force" in inspect.signature(runner.ensure_images).parameters
    assert runner.ensure_images(schedules[0], force=True) is True
    result = shrink_schedule(schedules[0], violates=runner.violates,
                             horizon=CONFIG.horizon,
                             max_replays=SHRINK_MAX_REPLAYS)
    stats = runner.stats()
    assert all(key in stats for key in WARM_KEYS), stats
    runs = stats["warm_runs"] + stats["cold_runs"]
    assert runs == len(schedules) + result.replays
    # ``warmstart.hit_share`` 1: every planned schedule forked.
    assert stats["warm_runs"] == runs


def test_flock_runner_is_driven_the_way_the_layer_driver_drives_it():
    schedules = _schedules()
    runner = FlockRunner(CONFIG, store=ImageStore(), timeline=None,
                         fork_batch=CONFIG.fork_batch)
    runner.plan(schedules)
    groups = runner.groups(schedules)
    assert sorted(index for group in groups for index in group) == \
        list(range(len(schedules)))
    for group in groups:
        for index in group:
            runner.audit_schedule(schedules[index], fail_fast=True)
    stats = runner.stats()
    assert all(key in stats for key in FLOCK_KEYS), stats
    assert stats["flock_runs"] == stats["forks"] == len(schedules)


@pytest.mark.parametrize("hints, keys", [
    ({"warmstart": True, "shrink": True}, WARM_KEYS),
    ({"warmstart": True, "flock": True}, FLOCK_KEYS)])
def test_run_audit_reports_the_keys_the_untraced_rounds_read(hints, keys):
    report = run_audit(CONFIG, schedules=_schedules(),
                       image_store=ImageStore(), **hints)
    assert all(key in report.warmstart for key in keys), report.warmstart
