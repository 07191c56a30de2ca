"""Workload generation and replayable action drivers.

Each process executes a pre-generated, deterministic *action stream*:
local computation steps, internal message sends, and external message
sends, with exponential inter-arrival gaps (independent Poisson streams
per action kind, the standard model for the paper's message-rate
parameters).

The stream is generated once per component and *replayed* after a
rollback: the driver keeps a cursor (part of the checkpointable process
state), and recovery rewinds the cursor and re-executes the undone
actions with their original inter-action gaps — modelling a process that
recomputes the rolled-back work.  The active and shadow replicas of
component 1 share one stream, so they perform identical computations on
identical inputs (paper Section 2.1).
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import List, Optional

from ..errors import ConfigurationError
from ..sim.events import EventPriority
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry, derive_seed


class ActionKind(enum.Enum):
    """What a workload action does."""

    LOCAL_STEP = "step"
    SEND_INTERNAL = "internal"
    SEND_EXTERNAL = "external"


@dataclasses.dataclass(frozen=True)
class Action:
    """One scheduled application action.

    ``gap`` is the time since the previous action (re-used verbatim when
    re-executing after a rollback); ``stimulus`` is the deterministic
    input to the computation.
    """

    index: int
    kind: ActionKind
    gap: float
    stimulus: int


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Poisson rates (events per second) for one component's actions.

    The paper's Figure 7 sweeps the *internal message rate*; external
    messages (which trigger acceptance tests) are much rarer, and local
    steps model computation that sends nothing.
    """

    internal_rate: float = 0.05
    external_rate: float = 0.002
    step_rate: float = 0.1
    horizon: float = 10_000.0

    def __post_init__(self) -> None:
        if self.internal_rate < 0 or self.external_rate < 0 or self.step_rate < 0:
            raise ConfigurationError(f"rates must be non-negative: {self}")
        if self.internal_rate == 0 and self.external_rate == 0 and self.step_rate == 0:
            raise ConfigurationError("workload must have at least one positive rate")
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive: {self}")


def generate_actions(config: WorkloadConfig, rng_registry: RngRegistry,
                     stream_name: str) -> List[Action]:
    """Generate a component's action stream over ``config.horizon``.

    Superposes the three Poisson streams by drawing each kind's next
    arrival and merging in time order; gaps are stored relative to the
    previous action in the merged stream, drawn from an unregistered
    local ``workload.<stream_name>`` stream.
    """
    rng = random.Random(derive_seed(rng_registry.master_seed,
                                    f"workload.{stream_name}"))
    arrivals = []
    for kind, rate in ((ActionKind.LOCAL_STEP, config.step_rate),
                       (ActionKind.SEND_INTERNAL, config.internal_rate),
                       (ActionKind.SEND_EXTERNAL, config.external_rate)):
        if rate <= 0:
            continue
        t = rng.expovariate(rate)
        while t < config.horizon:
            arrivals.append((t, kind))
            t += rng.expovariate(rate)
    arrivals.sort(key=lambda pair: pair[0])
    actions: List[Action] = []
    prev = 0.0
    for index, (t, kind) in enumerate(arrivals):
        actions.append(Action(index=index, kind=kind, gap=t - prev,
                              stimulus=rng.randrange(1 << 30)))
        prev = t
    return actions


class WorkloadDriver:
    """Replays an action stream into a target process.

    The target must expose ``perform_action(action)`` and be able to ask
    the driver for its cursor (for checkpoints) via :attr:`cursor`.
    Exactly one simulator event is outstanding at a time, so a rollback
    can cleanly cancel and re-arm the stream from the restored cursor.
    """

    def __init__(self, sim: Simulator, actions: List[Action], name: str) -> None:
        self._sim = sim
        self._actions = actions
        self.name = name
        self.cursor = 0
        self._target = None
        self._pending_event = None
        self._paused = False
        self._generation = 0
        #: Number of actions executed, counting re-executions.
        self.executed = 0

    # ------------------------------------------------------------------
    def start(self, target) -> None:
        """Bind the target process and schedule the first action."""
        self._target = target
        self._schedule_next()

    def pause(self) -> None:
        """Stop issuing actions (crash, or a deposed active process)."""
        self._paused = True
        self._cancel_pending()

    def resume(self) -> None:
        """Resume from the current cursor (post-restart/takeover)."""
        if not self._paused:
            return
        self._paused = False
        self._schedule_next()

    def rewind_to(self, cursor: int) -> None:
        """Roll the stream back to ``cursor`` and re-execute from there.

        Called by recovery after restoring a checkpoint whose snapshot
        recorded ``cursor``.  The next action fires after its original
        gap, modelling recomputation at the original pace.
        """
        self._generation += 1
        self._cancel_pending()
        self.cursor = cursor
        if not self._paused:
            self._schedule_next()

    @property
    def exhausted(self) -> bool:
        """Whether the stream has run out of actions."""
        return self.cursor >= len(self._actions)

    def remaining(self) -> int:
        """Number of actions not yet executed at the current cursor."""
        return max(0, len(self._actions) - self.cursor)

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        if self._paused or self._target is None or self.exhausted:
            return
        action = self._actions[self.cursor]
        self._pending_event = self._sim.schedule_after(
            action.gap, self._fire, args=(action,),
            priority=EventPriority.ACTION, label="action")

    def _fire(self, action: Action) -> None:
        self._pending_event = None
        if self._paused:
            return
        # The cursor still points at this action while it runs, so a
        # checkpoint taken *during* the action (the protocols checkpoint
        # immediately before sending) records the pre-action position:
        # rolling back to it re-executes the action, regenerating and
        # re-sending the message — recovery by recomputation.
        generation = self._generation
        self.executed += 1
        self._target.perform_action(action)
        if generation != self._generation or self._paused:
            # Recovery rewound (or a takeover paused) this driver while
            # the action ran; the rewind already re-armed the stream.
            return
        self.cursor = action.index + 1
        self._schedule_next()

    def _cancel_pending(self) -> None:
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
