"""Helpers for the MDCD engine tests: synthetic actions and settling."""

from repro.app.workload import Action, ActionKind


def action(kind=ActionKind.SEND_INTERNAL, stimulus=7, index=10_000_000):
    """A synthetic action for direct engine invocation."""
    return Action(index=index, kind=kind, gap=0.0, stimulus=stimulus)


INTERNAL = ActionKind.SEND_INTERNAL
EXTERNAL = ActionKind.SEND_EXTERNAL


def settle(system, duration=1.0):
    """Let in-flight messages drain."""
    system.sim.run(until=system.sim.now + duration)
