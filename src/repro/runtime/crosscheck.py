"""Sim-as-oracle cross-check: one scripted workload, two backends.

Runs the same :class:`~repro.runtime.script.WorkloadScript` on the
discrete-event backend and on three real OS processes, then compares
the normalized per-process decision sequences.  Equivalence means the
protocol logic — which is byte-identical on both backends — made the
same checkpoint/recovery choices under real concurrency as under the
verified simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from ..topology.model import parse_topology
from .decisions import diff_decisions
from .script import WorkloadScript, topology_script
from .sim_backend import SimBackend


@dataclasses.dataclass
class CrosscheckResult:
    """Outcome of one cross-backend run."""

    equivalent: bool
    seed: int
    ops: int
    differences: List[str]
    sim_decisions: Dict[str, List[Dict[str, Any]]]
    live_decisions: Dict[str, List[Dict[str, Any]]]
    topology: str = "paper"

    def summary(self) -> Dict[str, Any]:
        return {
            "equivalent": self.equivalent,
            "seed": self.seed,
            "ops": self.ops,
            "topology": self.topology,
            "differences": self.differences,
            "decisions_per_process": {
                process: len(seq)
                for process, seq in sorted(self.sim_decisions.items())},
        }


def run_crosscheck(seed: int = 0, script: Optional[WorkloadScript] = None,
                   workdir: Optional[str] = None,
                   topology: str = "paper") -> CrosscheckResult:
    """Run the script on both backends and diff the decision traces.

    ``workdir`` keeps the live backend's artifacts (decision JSONL
    files, stable-storage directories, agent logs) for inspection;
    otherwise a temporary directory is used and cleaned up.  One live
    OS process is spawned per member of ``topology``; the script
    defaults to :func:`topology_script` over it.
    """
    from ..live.harness import LiveHarness  # deferred: OS-process backend

    topo = parse_topology(topology)
    if script is None:
        script = topology_script(topo)
    sim_decisions = SimBackend(seed=seed, topology=topology).run_script(script)
    live_decisions = LiveHarness(seed=seed, workdir=workdir,
                                 topology=topology).run_script(script)
    differences = diff_decisions(sim_decisions, live_decisions)
    return CrosscheckResult(
        equivalent=not differences, seed=seed, ops=len(script),
        differences=differences, sim_decisions=sim_decisions,
        live_decisions=live_decisions, topology=topo.spec)
