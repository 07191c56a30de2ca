"""Software versions: where design faults live.

The paper's system model has one application component with *two
versions*: a low-confidence version (newly upgraded, or the
better-performance/less-reliable primary of a DRB/NSCP pair) run by the
active process ``P1_act``, and a high-confidence version run by the
shadow ``P1_sdw``.  The second component ``P2`` is high-confidence.

A design fault is modelled as a latent defect in the low-confidence
version that *activates* at some point (see
:meth:`~repro.coordination.scheme.System.inject_software_fault`); once
active, every payload the version computes is perturbed and
ground-truth ``corrupt``, and computing from it leaves the state
contaminated.  The defect is in the *code*, not the state: rolling
state back does not remove it — which is exactly why MDCD recovery
switches to the shadow's version rather than re-running the active's.
"""

from __future__ import annotations

from .component import AppState, Payload, _mix


class SoftwareVersion:
    """Base class: a correct (high-confidence) version."""

    def __init__(self, name: str) -> None:
        self.name = name

    def compute(self, state: AppState, stimulus: int) -> Payload:
        """Produce an output payload from ``state`` and ``stimulus``.

        The produced payload inherits the state's ground-truth
        corruption: computing from a contaminated state yields
        contaminated outputs (the paper's propagation assumption).
        """
        value = self._function(state, stimulus)
        return Payload(value=value, corrupt=state.corrupt)

    @staticmethod
    def _function(state: AppState, stimulus: int) -> int:
        return _mix(state.value ^ stimulus)


class HighConfidenceVersion(SoftwareVersion):
    """The trusted version (shadow process / component 2)."""


class LowConfidenceVersion(SoftwareVersion):
    """The guarded version: computes correctly until its latent defect
    activates, then produces perturbed, corrupt payloads and contaminates
    the state it computes from.

    ``fault_active`` is toggled by the system's armed fault plans.
    ``fault_count`` counts faulty computations, for monitoring.
    """

    def __init__(self, name: str = "low-confidence") -> None:
        super().__init__(name)
        self.fault_active = False
        self.fault_count = 0

    def compute(self, state: AppState, stimulus: int) -> Payload:
        """Correct until the defect activates; then perturb the result,
        mark it corrupt, and contaminate the computing state."""
        if not self.fault_active:
            return super().compute(state, stimulus)
        self.fault_count += 1
        # The defect: an off-by-one-ish perturbation of the correct
        # result.  Computing it also contaminates the local state (an
        # erroneous computation writes erroneous intermediate values).
        correct = self._function(state, stimulus)
        state.corrupt = True
        return Payload(value=correct + 1, corrupt=True)
