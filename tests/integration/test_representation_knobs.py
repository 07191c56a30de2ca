"""Representation knobs are invisible in a run's outcome.

Tracing and the worker count change how a run is recorded or
scheduled — never what happens in it.  One Fig. 7 crash-recovery cell (coordinated
scheme, internal rate 100, the sweep's own Poisson crash plans) runs
once per knob setting; rollback distances and the executed-event count
must equal the reference run's exactly.
"""

import dataclasses
import functools

import pytest

from repro.coordination.scheme import Scheme, build_system
from repro.experiments.figure7 import (
    Figure7Config,
    _crash_plans,
    _system_config,
)
from repro.experiments.runner import replication_seeds, run_campaign
from repro.sim.storage import VolatileStore
from repro.snapshot.sections import encode_full

RATE = 100
SEED = 2001
FIG = Figure7Config(horizon=3_000.0)

#: name -> ``SystemConfig`` overrides on the reference run (which traces
#: every category).
KNOBS = {
    "trace-off": dict(trace_enabled=False),
    "trace-allowlist": dict(trace_categories=("tb.establish.",)),
}


def _run(knobs, seed, fig=FIG, crashes=True):
    config = dataclasses.replace(
        _system_config(fig, RATE, Scheme.COORDINATED, seed),
        **{"trace_enabled": True, **knobs})
    system = build_system(config)
    for plan in _crash_plans(fig, seed) if crashes else ():
        system.inject_crash(plan)
    system.run()
    return system


def _outcome(knobs, seed=SEED):
    system = _run(knobs, seed)
    return system.hw_recovery.distances(), system.sim.events_executed


def _distances(knobs, seed):
    """Module-level so ``workers=2`` can ship it to worker processes."""
    return _outcome(knobs, seed)[0]


@pytest.fixture(scope="module")
def reference():
    distances, events = _outcome({})
    assert distances and events, "the cell recovered from no crash"
    return distances, events


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_knob_changes_no_outcome(reference, knob):
    assert _outcome(KNOBS[knob]) == reference


def test_worker_processes_change_no_outcome():
    label = "knobs.workers"
    parallel = run_campaign(label, SEED, 2,
                            functools.partial(_distances, {}), workers=2)
    assert parallel.samples == [
        distance for seed in replication_seeds(SEED, label, 2)
        for distance in _distances({}, seed)]
    assert parallel.samples


def test_incremental_capture_halves_volatile_bytes(monkeypatch):
    """Fault-free steady state: delta capture writes at most half the
    volatile bytes that full sections of the same saved states take."""
    saved = []
    save = VolatileStore.save

    def spy(store, checkpoint):
        saved.append(checkpoint)
        save(store, checkpoint)

    monkeypatch.setattr(VolatileStore, "save", spy)
    system = _run({}, SEED, fig=Figure7Config(horizon=4_000.0),
                  crashes=False)
    stores = [p.node.volatile for p in system.process_list()]
    assert sum(s.saves for s in stores) == len(saved) > 0
    full_bytes = sum(encode_full(c.restore_state()).nbytes for c in saved)
    assert full_bytes >= 2 * sum(s.bytes_written for s in stores)
