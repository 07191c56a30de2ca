"""Helpers for the TB engine tests: synthetic actions and a run-to."""

from repro.app.workload import Action, ActionKind


def action(kind=ActionKind.SEND_INTERNAL, stimulus=7, index=10_000_000):
    return Action(index=index, kind=kind, gap=0.0, stimulus=stimulus)


INTERNAL = ActionKind.SEND_INTERNAL
EXTERNAL = ActionKind.SEND_EXTERNAL


def run_to(system, t):
    system.sim.run(until=t)
