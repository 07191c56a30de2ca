"""One live protocol process.

``python -m repro.live.agent '<spec-json>'`` hosts exactly one
:class:`~repro.host.FtProcess` on the live adapters: wall clock, TCP
transport, file-backed stable storage.  The spec names a topology
member; the agent builds it from the sim backend's
:func:`~repro.runtime.sim_backend.scripted_config` through the same
:mod:`repro.coordination.wiring` functions the sim's
:class:`~repro.coordination.scheme.System` calls (workload stream,
version, process, MDCD and TB engines), so the two backends stay
decision-equivalent.  The harness drives it
over a line-JSON control channel on stdin/stdout (commands below);
peer traffic arrives on the listening socket; protocol decisions
stream to a JSONL artifact via the shared
:mod:`repro.runtime.decisions` normalizer.

Control commands::

    start {release}    bind driver + TB engine; optionally leave held mode
    release            leave held mode (post-recovery restarts)
    op {op, index, stimulus}   inject one scripted workload action
    tb-round           trigger one checkpoint establishment
    quiesce {horizon}  report whether the process is idle
    status             role/incarnation/takeover/confidence snapshot
    hw-latest          latest stable epoch + next TB boundary index
    hw-hold {floor}    keep every stable epoch from ``floor`` on (a member is down)
    hw-recover {line, boundary, incarnation}   roll back to the line, lift the hold
    hw-resend          re-send unacknowledged messages, resume driver
    shutdown           flush artifacts and exit

A (re)starting agent is *held*: inbound frames are receipted and
buffered but not dispatched until the harness releases it, so recovery
always completes before old-incarnation traffic can reach the protocol
layer (where the incarnation fence then drops it, exactly like the
sim's dropped in-flight deliveries).
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import sys
import uuid
from typing import Any, Dict, Optional

from ..coordination.wiring import (action_stream, attach_engines, ft_process,
                                   low_versions)
from ..host import IncarnationCounter
from ..mdcd.recovery import drop_recipient
from ..messages.message import MsgIdAllocator
from ..runtime import RngRegistry, TraceRecorder
from ..runtime.decisions import record_to_decision
from ..runtime.script import SCRIPT_ACTION_BASE, _ACTION_KINDS
from ..runtime.sim_backend import scripted_config
from ..tb.hardware_recovery import line_report, restore_to_line
from ..topology.model import MemberKind, parse_topology
from ..types import NodeId, ProcessId
from .clock import WallClock
from .failover import peer_adopt_takeover, shadow_takeover
from .loop import LiveScheduler
from .node import LiveNode
from .storage import FileStableStore
from .transport import LiveTransport


class LiveAgent:
    """Build and run one protocol process from its harness spec."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        config = scripted_config(
            seed=spec["seed"], horizon=spec["horizon"],
            topology=spec["topology"], tb_interval=spec["tb_interval"])
        self.topology = parse_topology(config.topology)
        self.member = self.topology.member(spec["role"])
        self.process_id = ProcessId(self.member.role_id)
        self.running = True
        self.takeover_summary: Optional[Dict[str, Any]] = None

        self.clock = WallClock(origin=spec["clock_origin"])
        self.scheduler = LiveScheduler(self.clock)
        self.selector = selectors.DefaultSelector()

        listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listen.bind((spec["host"], int(spec["port"])))
        listen.listen(8)
        self.transport = LiveTransport(
            self.process_id, self.scheduler, self.selector, listen,
            peers={peer: tuple(addr) for peer, addr in spec["peers"].items()},
            session=uuid.uuid4().hex)
        self.transport.on_control = self._on_control

        self.stable = FileStableStore(spec["data_dir"],
                                      history=config.stable_history)
        self.node = LiveNode(NodeId(spec["node"]),
                             self.scheduler, self.clock, self.stable)
        self.rng = RngRegistry(config.seed)
        self.incarnation = IncarnationCounter()
        self.incarnation.value = int(spec["incarnation"])
        self.msg_ids = MsgIdAllocator()

        self.trace = TraceRecorder(enabled=True)
        self._decision_file = open(spec["trace_path"], "a", encoding="utf-8")
        self.trace.subscribe(self._on_trace_record)
        debug_dir = os.environ.get("REPRO_LIVE_TRACE_DIR")
        self._debug_file = None
        if debug_dir:
            self._debug_file = open(
                os.path.join(debug_dir, f"trace_{self.process_id}.jsonl"),
                "a", encoding="utf-8")
            self.trace.subscribe(self._on_debug_record)

        self.process = ft_process(
            config, self.member, node=self.node, network=self.transport,
            scheduler=self.scheduler,
            actions=action_stream(config, self.member, self.rng),
            versions=low_versions(self.topology),
            incarnation=self.incarnation, msg_ids=self.msg_ids,
            trace=self.trace)
        attach_engines(self.topology, config,
                       {self.member.role_id: self.process}, self.rng,
                       self.scheduler, [self.clock], self.trace)
        # A process restarted after a software takeover must not talk to
        # the deposed active: the sim keeps the survivors' mutated
        # engines in memory, a fresh OS process re-applies the exclusion
        # from its spec.
        for dead in spec["deposed"]:
            drop_recipient(self.process.software, ProcessId(str(dead)))
            self.transport.drop_peer(str(dead))

        self._hb = spec["heartbeat"]
        self._watch: Optional[str] = self._hb.get("watch") if self._hb else None
        self._started = False

        # Control channel: unbuffered byte reads off stdin, line JSON out.
        self._stdin_buffer = b""
        os.set_blocking(sys.stdin.fileno(), False)
        self.selector.register(sys.stdin.fileno(), selectors.EVENT_READ,
                               self._stdin_readable)

    # ------------------------------------------------------------------
    # decision artifact
    # ------------------------------------------------------------------
    def _on_trace_record(self, record) -> None:
        decision = record_to_decision(record)
        if decision is None or record.process != self.process_id:
            return
        self._decision_file.write(json.dumps(decision, sort_keys=True) + "\n")
        self._decision_file.flush()

    def _on_debug_record(self, record) -> None:
        """Raw-trace diagnostics (``REPRO_LIVE_TRACE_DIR``): every trace
        record, not just normalized decisions."""
        self._debug_file.write(json.dumps(
            {"t": record.time, "category": record.category,
             "process": None if record.process is None else str(record.process),
             "data": {k: repr(v) for k, v in record.data.items()}},
            sort_keys=True) + "\n")
        self._debug_file.flush()

    # ------------------------------------------------------------------
    # control channel
    # ------------------------------------------------------------------
    def _stdin_readable(self) -> None:
        try:
            chunk = os.read(sys.stdin.fileno(), 65536)
        except (BlockingIOError, InterruptedError):
            return
        if not chunk:
            # Harness died: there is no one to coordinate with.
            self.running = False
            return
        self._stdin_buffer += chunk
        while b"\n" in self._stdin_buffer:
            line, self._stdin_buffer = self._stdin_buffer.split(b"\n", 1)
            if line.strip():
                self._handle_command(json.loads(line.decode("utf-8")))

    def _reply(self, payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        sys.stdout.flush()

    def _handle_command(self, command: Dict[str, Any]) -> None:
        name = command.get("cmd", "")
        try:
            handler = getattr(self, f"_cmd_{name.replace('-', '_')}")
        except AttributeError:
            self._reply({"ok": False, "error": f"unknown command {name!r}"})
            return
        try:
            response = handler(command) or {}
        except Exception as exc:  # noqa: BLE001 - reported to the harness
            self._reply({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            return
        response.setdefault("ok", True)
        self._reply(response)

    # -- commands ------------------------------------------------------
    def _cmd_start(self, command: Dict[str, Any]) -> Dict[str, Any]:
        if not self._started:
            self.process.start()
            self._started = True
            if self._hb:
                self._schedule_heartbeat()
        if command.get("release", True):
            self.transport.release_held()
        return {"started": True}

    def _cmd_release(self, _command: Dict[str, Any]) -> Dict[str, Any]:
        self.transport.release_held()
        return {}

    def _cmd_op(self, command: Dict[str, Any]) -> Dict[str, Any]:
        from ..app.workload import Action
        kind = _ACTION_KINDS[command["op"]]
        action = Action(index=SCRIPT_ACTION_BASE + int(command["index"]),
                        kind=kind, gap=0.0, stimulus=int(command["stimulus"]))
        self.process.perform_action(action)
        return {}

    def _cmd_tb_round(self, _command: Dict[str, Any]) -> Dict[str, Any]:
        if self.process.hardware is not None:
            self.process.hardware.trigger_round()
        return {}

    def _cmd_quiesce(self, command: Dict[str, Any]) -> Dict[str, Any]:
        horizon = float(command.get("horizon", 2.0))
        pending = (len(self.scheduler.pending_within(horizon))
                   if horizon > 0 else 0)
        unreceipted = self.transport.unreceipted_count()
        return {"idle": unreceipted == 0 and pending == 0,
                "unreceipted": unreceipted, "pending": pending}

    def _cmd_status(self, _command: Dict[str, Any]) -> Dict[str, Any]:
        process = self.process
        return {
            "role": self.member.role_id,
            "incarnation": self.incarnation.value,
            "deposed": process.deposed,
            "guarded": process.mdcd.guarded,
            "dirty": process.confidence_bit(),
            "ndc": process.current_ndc(),
            "takeover": self.takeover_summary,
            "stable_epochs": self.stable.epochs(self.process_id),
            "damaged_files": self.stable.damaged_files,
            "counters": self.transport.counters,
        }

    def _cmd_hw_latest(self, _command: Dict[str, Any]) -> Dict[str, Any]:
        _process_id, epoch, boundary = line_report(self.process)
        return {"epoch": epoch, "boundary": boundary}

    def _cmd_hw_hold(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.stable.hold(command["floor"])
        return {}

    def _cmd_hw_recover(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """One process's slice of HardwareRecoveryCoordinator.recover_all:
        fence, restore the line checkpoint (the shared
        :func:`~repro.tb.hardware_recovery.restore_to_line`), re-align
        the TB engine on the agreed boundary; lift the crash's hold."""
        line = int(command["line"])
        process = self.process
        self.incarnation.value = int(command["incarnation"])
        self.stable.hold(None)
        distance = restore_to_line(process, line)
        if process.hardware is not None:
            process.hardware.reset_after_recovery(
                line, command.get("boundary"))
        return {"distance": distance, "epoch": line}

    def _cmd_hw_resend(self, command: Dict[str, Any]) -> Dict[str, Any]:
        resent = self.process.resend_unacknowledged(
            {str(pid) for pid in command.get("deposed", [])})
        self.process.driver.resume()
        return {"resent": resent}

    def _cmd_shutdown(self, _command: Dict[str, Any]) -> Dict[str, Any]:
        self.running = False
        return {"bye": True}

    # ------------------------------------------------------------------
    # heartbeat failure detection (live-only; drives shadow takeover)
    # ------------------------------------------------------------------
    def _schedule_heartbeat(self) -> None:
        interval = float(self._hb.get("interval", 0.2))
        self._hb_started_at = self.scheduler.now
        self.scheduler.schedule_after(interval, self._heartbeat_tick,
                                      args=(interval,), label="_infra:hb")

    def _heartbeat_tick(self, interval: float) -> None:
        if not self.running:
            return
        self.transport.send_heartbeat()
        if self._watch:
            self._check_watch()
        self.scheduler.schedule_after(interval, self._heartbeat_tick,
                                      args=(interval,), label="_infra:hb")

    def _check_watch(self) -> None:
        timeout = float(self._hb.get("timeout", 1.0))
        last = self.transport.last_heard.get(self._watch, self._hb_started_at)
        if self.scheduler.now - last < timeout:
            return
        condemned, self._watch = self._watch, None
        if (self.member.kind is MemberKind.SHADOW
                and not self.takeover_summary):
            self._run_takeover(condemned)

    def _run_takeover(self, condemned: str) -> None:
        self.transport.drop_peer(condemned)
        self.takeover_summary = shadow_takeover(
            self.process, ProcessId(condemned), self.incarnation)
        for peer in self.topology.peers():
            self.transport.send_control(peer.role_id, {
                "type": "takeover", "active": condemned,
                "incarnation": self.incarnation.value})

    def _on_control(self, payload: Dict[str, Any]) -> None:
        if payload.get("type") != "takeover":
            return
        active = str(payload.get("active", ""))
        if self.member.kind is MemberKind.PEER:
            summary = peer_adopt_takeover(
                self.process, ProcessId(active), self.incarnation,
                int(payload.get("incarnation", 0)))
            if summary is not None:
                self.takeover_summary = summary
                self.transport.drop_peer(active)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        self._reply({"event": "ready", "process": str(self.process_id),
                     "pid": os.getpid()})
        while self.running:
            delay = self.scheduler.run_due()
            timeout = 0.1 if delay is None else max(0.0, min(delay, 0.1))
            for key, _mask in self.selector.select(timeout):
                key.data()
        self._decision_file.flush()
        self._decision_file.close()
        self.transport.close()
        return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.live.agent '<spec-json>'", file=sys.stderr)
        return 2
    spec = json.loads(argv[0])
    return LiveAgent(spec).run()


if __name__ == "__main__":
    sys.exit(main())
