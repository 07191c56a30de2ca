"""Multi-process orchestration for the live backend.

The harness launches one :mod:`repro.live.agent` OS process per
topology member (three for ``Topology.paper()``, one per active,
shadow and peer generally), wires them to each other over localhost
TCP, and drives them through their stdin/stdout control channels.  It
plays two parts:

* **Oracle runs** (:meth:`LiveHarness.run_script`): execute a
  :class:`~repro.runtime.script.WorkloadScript` under the same
  barrier discipline as :class:`~repro.runtime.sim_backend.SimBackend`
  — apply an op, quiesce the whole system, repeat — including real
  ``kill -9`` crash injection and the coordinated hardware recovery
  (the harness orchestrates across agents the exact phases
  :class:`~repro.tb.hardware_recovery.HardwareRecoveryCoordinator`
  runs in one address space).  Returns per-process decision traces in
  the shape :func:`~repro.runtime.decisions.decisions_from_trace`
  produces, so the two backends diff directly.
* **Failure demos** (:meth:`LiveHarness.run_demo`): heartbeats on,
  short real TB intervals, scripted ``kill -9`` of a component's
  *active*; asserts the elected shadow takes over on its own failure
  detector, then kills and recovers a peer from its file-backed stable
  storage.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..topology.election import elect_successor
from ..topology.model import MemberKind, Topology, parse_topology
from ..types import Role

#: Paper-shape member application/recovery order (kept for callers that
#: still think in the three historical roles).
ROLE_ORDER = (Role.ACTIVE_1, Role.SHADOW_1, Role.PEER_2)

#: Paper-shape node-to-role map (scripts name nodes, agents are
#: per-member).
NODE_ROLES = {"N1a": Role.ACTIVE_1, "N1b": Role.SHADOW_1, "N2": Role.PEER_2}


class HarnessError(ReproError):
    """A live agent failed to start, respond, or quiesce in time."""


def _free_port() -> int:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
    finally:
        sock.close()


class AgentHandle:
    """One spawned agent process and its control channel."""

    def __init__(self, member: str, spec: Dict[str, Any],
                 log_path: str) -> None:
        self.member = member
        self.spec = spec
        self.log = open(log_path, "ab")
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.live.agent", json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            env=env)
        self._buffer = b""

    # ------------------------------------------------------------------
    def _read_line(self, timeout: float) -> Dict[str, Any]:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessError(
                    f"{self.member}: no response within {timeout:.1f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise HarnessError(
                    f"{self.member}: agent exited unexpectedly "
                    f"(code {self.proc.poll()})")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line.decode("utf-8"))

    def wait_ready(self, timeout: float = 15.0) -> Dict[str, Any]:
        ready = self._read_line(timeout)
        if ready.get("event") != "ready":
            raise HarnessError(f"{self.member}: unexpected boot line {ready}")
        return ready

    def request(self, command: Dict[str, Any],
                timeout: float = 15.0) -> Dict[str, Any]:
        data = json.dumps(command) + "\n"
        try:
            self.proc.stdin.write(data.encode("utf-8"))
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise HarnessError(f"{self.member}: control channel closed "
                               f"({exc})") from exc
        response = self._read_line(timeout)
        if not response.get("ok", False):
            raise HarnessError(
                f"{self.member}: {command.get('cmd')} failed: "
                f"{response.get('error')}")
        return response

    # ------------------------------------------------------------------
    def kill9(self) -> int:
        """The fault model: SIGKILL, no cleanup, no goodbye."""
        self.proc.send_signal(signal.SIGKILL)
        code = self.proc.wait()
        self._close_pipes()
        return code

    def shutdown(self, timeout: float = 10.0) -> None:
        try:
            self.request({"cmd": "shutdown"}, timeout=timeout)
            self.proc.wait(timeout=timeout)
        except (HarnessError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (OSError, ValueError):
                pass
        try:
            self.log.close()
        except OSError:
            pass


class LiveHarness:
    """Launch, drive, crash, and recover one OS process per member."""

    name = "live"

    def __init__(self, seed: int = 0, tb_interval: float = 10_000.0,
                 workdir: Optional[str] = None,
                 heartbeat: Optional[Dict[str, float]] = None,
                 deadline: float = 120.0, horizon: float = 1_000.0,
                 quiesce_horizon: float = 2.0,
                 topology: str = "paper") -> None:
        self.seed = seed
        self.tb_interval = tb_interval
        self.heartbeat = heartbeat
        self.deadline = deadline
        self.horizon = horizon
        self.quiesce_horizon = quiesce_horizon
        self.topology: Topology = parse_topology(topology)
        self.member_ids = list(self.topology.role_ids())
        self._node_member = {m.node_id: m.role_id
                             for m in self.topology.members}
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-live-")
        self._owns_workdir = workdir is None
        os.makedirs(self.workdir, exist_ok=True)
        #: One shared CLOCK_MONOTONIC origin: agents (including
        #: restarted ones) agree on local time the way the sim's
        #: roughly-synchronized clocks do.
        self.clock_origin = time.monotonic()
        self.ports = {member: _free_port() for member in self.member_ids}
        self.agents: Dict[str, AgentHandle] = {}
        self.deposed: List[str] = []
        self._deadline_at = 0.0

    # ------------------------------------------------------------------
    # specs and lifecycle
    # ------------------------------------------------------------------
    def _trace_path(self, member: str) -> str:
        return os.path.join(self.workdir, f"decisions_{member}.jsonl")

    def _spec(self, member: str, incarnation: int = 0) -> Dict[str, Any]:
        heartbeat = None
        if self.heartbeat is not None:
            heartbeat = dict(self.heartbeat)
            slot = self.topology.member(member)
            if slot.kind is MemberKind.SHADOW and self._is_successor(slot):
                heartbeat.setdefault(
                    "watch", self.topology.active_of(slot.component).role_id)
        return {
            "role": member,
            "topology": self.topology.spec,
            "node": self.topology.member(member).node_id,
            "seed": self.seed,
            "host": "127.0.0.1",
            "port": self.ports[member],
            "peers": {other: ["127.0.0.1", self.ports[other]]
                      for other in self.member_ids if other != member},
            "data_dir": os.path.join(self.workdir, f"stable_{member}"),
            "trace_path": self._trace_path(member),
            "tb_interval": self.tb_interval,
            "horizon": self.horizon,
            "clock_origin": self.clock_origin,
            "heartbeat": heartbeat,
            "incarnation": incarnation,
            "deposed": list(self.deposed),
        }

    def _is_successor(self, slot) -> bool:
        """Whether ``slot`` is the deterministic takeover winner of its
        component (the one shadow that arms the failure detector)."""
        statuses = {m.role_id: "up" for m in self.topology.members}
        return elect_successor(self.topology, slot.component,
                               statuses) == slot.role_id

    def _spawn(self, member: str, incarnation: int = 0) -> AgentHandle:
        agent = AgentHandle(member, self._spec(member, incarnation),
                            os.path.join(self.workdir,
                                         f"agent_{member}.log"))
        agent.wait_ready(timeout=self._budget(15.0))
        self.agents[member] = agent
        return agent

    def _budget(self, cap: float) -> float:
        remaining = self._deadline_at - time.monotonic()
        if remaining <= 0:
            raise HarnessError("harness deadline exceeded")
        return min(cap, remaining)

    def _in_service(self) -> List[AgentHandle]:
        return [self.agents[member] for member in self.member_ids
                if member in self.agents]

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def quiesce_all(self, horizon: Optional[float] = None) -> None:
        """Block until every in-service agent is idle twice in a row
        (no unreceipted frames, no due protocol events)."""
        horizon = self.quiesce_horizon if horizon is None else horizon
        consecutive = 0
        while consecutive < 2:
            self._budget(1.0)
            idle = all(
                agent.request({"cmd": "quiesce", "horizon": horizon},
                              timeout=self._budget(15.0))["idle"]
                for agent in self._in_service())
            consecutive = consecutive + 1 if idle else 0
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # scripted oracle runs
    # ------------------------------------------------------------------
    def _reset_artifacts(self) -> None:
        """A run boots from genesis: drop any previous run's decision
        traces and stable chains first.  Agents append to their
        decision files (a kill -9 respawn must continue the same
        trace), so a reused ``workdir`` would otherwise prepend a stale
        run's decisions and resurrect its checkpoints."""
        for member in self.member_ids:
            path = self._trace_path(member)
            if os.path.exists(path):
                os.remove(path)
            shutil.rmtree(os.path.join(self.workdir, f"stable_{member}"),
                          ignore_errors=True)

    def run_script(self, script) -> Dict[str, List[Dict[str, Any]]]:
        """Execute ``script`` on real processes; return decision traces."""
        self._deadline_at = time.monotonic() + self.deadline
        self._reset_artifacts()
        try:
            for member in self.member_ids:
                self._spawn(member)
            for agent in self._in_service():
                agent.request({"cmd": "start", "release": True},
                              timeout=self._budget(15.0))
            self.quiesce_all()
            for sequence, op in script.numbered():
                self._apply(op, sequence)
                self.quiesce_all()
            for agent in self._in_service():
                agent.shutdown(timeout=self._budget(10.0))
            return self.collect_decisions()
        finally:
            self._reap_all()

    def _apply(self, op, sequence: int) -> None:
        from ..runtime.script import member_targets
        if op.op == "settle":
            return
        if op.op == "tb-round":
            for agent in self._in_service():
                agent.request({"cmd": "tb-round"}, timeout=self._budget(15.0))
            return
        if op.op == "crash":
            agent = self.agents.pop(self._node_member[op.target])
            agent.kill9()
            return
        if op.op == "restart":
            self.recover_node(self._node_member[op.target])
            return
        for member in member_targets(op.target, self.topology):
            if member in self.agents:
                self.agents[member].request(
                    {"cmd": "op", "op": op.op, "index": sequence,
                     "stimulus": op.stimulus}, timeout=self._budget(15.0))

    # ------------------------------------------------------------------
    # coordinated hardware recovery (HardwareRecoveryCoordinator's
    # phases, orchestrated across address spaces)
    # ------------------------------------------------------------------
    def recover_node(self, member) -> Dict[str, Any]:
        # The restarted agent comes up *held*: it receipts traffic but
        # dispatches nothing until recovery has restored its state and
        # fenced the old incarnation.
        if isinstance(member, Role):
            member = member.value
        current = max((agent.request({"cmd": "status"},
                                     timeout=self._budget(15.0))["incarnation"]
                       for agent in self._in_service()), default=0)
        restarted = self._spawn(member, incarnation=current)
        restarted.request({"cmd": "start", "release": False},
                          timeout=self._budget(15.0))
        latest = [agent.request({"cmd": "hw-latest"},
                                timeout=self._budget(15.0))
                  for agent in self._in_service()]
        epochs = [entry["epoch"] for entry in latest]
        if any(epoch is None for epoch in epochs):
            raise HarnessError("a process has no stable checkpoint (no genesis?)")
        line = min(epochs)
        boundaries = [entry["boundary"] for entry in latest
                      if entry["boundary"] is not None]
        boundary = max(boundaries) if boundaries else None
        incarnation = current + 1
        for agent in self._in_service():
            agent.request({"cmd": "hw-recover", "line": line,
                           "boundary": boundary, "incarnation": incarnation},
                          timeout=self._budget(15.0))
        for agent in self._in_service():
            agent.request({"cmd": "hw-resend", "deposed": list(self.deposed)},
                          timeout=self._budget(15.0))
        restarted.request({"cmd": "release"}, timeout=self._budget(15.0))
        return {"line": line, "boundary": boundary, "incarnation": incarnation}

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def collect_decisions(self) -> Dict[str, List[Dict[str, Any]]]:
        """Read back the per-process decision JSONL artifacts (same
        shape as ``decisions_from_trace``: only processes that decided
        something appear)."""
        decisions: Dict[str, List[Dict[str, Any]]] = {}
        for member in self.member_ids:
            path = self._trace_path(member)
            if not os.path.exists(path):
                continue
            with open(path, "r", encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle
                           if line.strip()]
            if records:
                decisions[member] = records
        return decisions

    def cleanup(self) -> None:
        """Remove the working directory (only if the harness made it)."""
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _reap_all(self) -> None:
        for agent in self.agents.values():
            agent.reap()
        self.agents.clear()

    # ------------------------------------------------------------------
    # live failure demo
    # ------------------------------------------------------------------
    def run_demo(self) -> Dict[str, Any]:
        """Heartbeat failover end to end, on real processes.

        ``kill -9`` component 1's active mid-run; the elected shadow's
        own failure detector must promote it (no harness involvement).
        Then ``kill -9`` the first peer and run the coordinated
        hardware recovery from file-backed stable storage.  Returns a
        summary dict; the decision artifacts stay in ``workdir``.
        """
        if self.heartbeat is None:
            self.heartbeat = {"interval": 0.15, "timeout": 0.75}
        self._deadline_at = time.monotonic() + self.deadline
        active_id = self.topology.active_of(1).role_id
        successor_id = self.topology.shadows_of(1)[0].role_id
        peer_ids = [p.role_id for p in self.topology.peers()]
        summary: Dict[str, Any] = {"seed": self.seed,
                                   "tb_interval": self.tb_interval,
                                   "workdir": self.workdir,
                                   "topology": self.topology.spec}
        self._reset_artifacts()
        try:
            for member in self.member_ids:
                self._spawn(member)
            for agent in self._in_service():
                agent.request({"cmd": "start", "release": True},
                              timeout=self._budget(15.0))
            self._demo_op("internal", 0, 41)
            self._demo_op("external", 1, 42)
            # Let at least two periodic TB boundaries pass for real.
            time.sleep(2.2 * self.tb_interval)
            self.quiesce_all(horizon=0.0)

            active = self.agents.pop(active_id)
            summary["active_killed"] = active.kill9() == -signal.SIGKILL
            self.deposed = [active_id]
            summary["takeover"] = self._await_takeover(successor_id)
            summary["peer_adopted"] = self._await_takeover(peer_ids[0])

            self._demo_op("internal", 2, 43)
            self._demo_op("external", 3, 44)
            self.quiesce_all(horizon=0.0)

            peer = self.agents.pop(peer_ids[0])
            summary["peer_killed"] = peer.kill9() == -signal.SIGKILL
            time.sleep(0.2)
            summary["hardware_recovery"] = self.recover_node(peer_ids[0])
            self._demo_op("internal", 4, 45)
            self.quiesce_all(horizon=0.0)

            for agent in self._in_service():
                agent.shutdown(timeout=self._budget(10.0))
            decisions = self.collect_decisions()
            summary["decisions"] = {pid: len(seq)
                                    for pid, seq in decisions.items()}
            shadow = decisions.get(successor_id, [])
            peer_seq = decisions.get(peer_ids[0], [])
            summary["shadow_recovered"] = any(
                entry["event"].startswith("recovery.") for entry in shadow)
            summary["peer_rolled_back"] = any(
                entry["event"] == "recovery.rollback.hardware"
                for entry in peer_seq)
            summary["ok"] = bool(
                summary["active_killed"] and summary["takeover"]
                and summary["peer_killed"] and summary["shadow_recovered"]
                and summary["peer_rolled_back"])
            with open(os.path.join(self.workdir, "demo_summary.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
            return summary
        finally:
            self._reap_all()

    def _demo_op(self, op: str, sequence: int, stimulus: int) -> None:
        """Apply a component-1 op to whichever replicas are in service."""
        from ..runtime.script import member_targets
        for member in member_targets("C1", self.topology):
            if member in self.agents:
                self.agents[member].request(
                    {"cmd": "op", "op": op, "index": sequence,
                     "stimulus": stimulus}, timeout=self._budget(15.0))
        self.quiesce_all(horizon=0.0)

    def _await_takeover(self, member: str) -> Optional[Dict[str, Any]]:
        """Poll ``member``'s status until its takeover summary appears."""
        while True:
            self._budget(1.0)
            status = self.agents[member].request({"cmd": "status"},
                                                 timeout=self._budget(15.0))
            if status.get("takeover"):
                return status["takeover"]
            time.sleep(0.1)
