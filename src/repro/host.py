"""The fault-tolerant process host.

:class:`FtProcess` is the object the protocol engines hang off: it
composes an application component, the message bookkeeping (sequence
numbers, acknowledgement tracking, deduplication, journals, the shadow's
suppressed-message log), MDCD knowledge state, checkpoint capture /
restore, and the blocking-period message buffer.  A *software engine*
(an MDCD variant, :mod:`repro.mdcd`) decides what happens on application
sends/receives and "passed AT" notifications; a *hardware engine* (a TB
variant, :mod:`repro.tb`, or the write-through baseline) decides when
stable checkpoints are established and which deliveries are buffered.

Either engine may be absent: a process with no software engine sends
born-valid messages directly (used by the plain two-process TB scenarios
of paper Fig. 2), and a process with no hardware engine never blocks and
never writes stable checkpoints (pure-MDCD operation).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set

from .app.component import ApplicationComponent, AppState, Payload
from .app.workload import Action, ActionKind, WorkloadDriver
from .checkpoint import Checkpoint
from .errors import StorageError
from .journal import Journal
from .messages.log import MessageLog
from .messages.message import (DEVICE, Message, MsgIdAllocator,
                               passed_at_notification,
                               _default_allocator as _default_msg_ids)
from .messages.sequence import AckTracker, ReceiveDeduplicator, SequenceAllocator
from .mdcd.state import MdcdState
from .runtime import CounterSet, SimProcess, TraceRecorder
from .runtime.ports import CrashPort, TransportPort
from .snapshot.sections import SnapshotEncoder
from .types import CheckpointKind, MessageKind, ProcessId, Role, StableContent


class IncarnationCounter:
    """System-wide recovery incarnation.

    Bumped by both software and hardware recovery; messages stamped with
    an older incarnation are rejected (and not acknowledged) on
    delivery, fencing pre-recovery traffic out of the recovered
    computation.
    """

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        """Advance to the next incarnation and return it."""
        self.value += 1
        return self.value


@dataclasses.dataclass
class ProcessSnapshot:
    """Everything a checkpoint freezes for one process.

    Encoded by :class:`~repro.checkpoint.Checkpoint` through the
    :mod:`~repro.snapshot` pipeline, which groups the fields into
    sections by each value's ``snapshot_section`` declaration (the
    undeclared bookkeeping fields form the ``counters`` section);
    restoring a snapshot restores the application state, the protocol knowledge
    (MDCD state, journals, the shadow's log), the message bookkeeping
    (sequence counter, dedup set, unacknowledged messages), and the
    workload cursor so re-execution resumes from the right action.
    """

    app_state: AppState
    mdcd: MdcdState
    sn_value: int
    dedup_seen: Set[int]
    unacked: List[Message]
    journal_sent: Journal
    journal_recv: Journal
    msg_log: MessageLog
    cursor: int
    dsn_counters: Dict[ProcessId, int] = dataclasses.field(default_factory=dict)


class FtProcess(SimProcess):
    """A simulated process under software and/or hardware fault tolerance.

    Parameters
    ----------
    process_id, node, network, trace:
        Substrate plumbing (see :class:`~repro.sim.process.SimProcess`).
    role:
        The paper's process role; ``None`` for plain processes outside
        the three-process model.
    component:
        The application component this process executes.
    driver:
        The workload driver replaying this process's action stream.
    incarnation:
        The shared :class:`IncarnationCounter`.
    """

    def __init__(self, process_id: ProcessId, node: CrashPort, network: TransportPort,
                 component: ApplicationComponent, driver: WorkloadDriver,
                 incarnation: IncarnationCounter,
                 role: Optional[Role] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(process_id, node, network, trace)
        self.role = role
        #: Whether this process is a guarded component's low-confidence
        #: active — the adapted TB then consults the pseudo dirty bit.
        #: Derived from the paper role here; topology builders set it
        #: for actives outside the three-process model.
        self.is_guarded_active = role is Role.ACTIVE_1
        self.component = component
        self.driver = driver
        self.incarnation = incarnation
        self.mdcd = MdcdState()
        #: Message-id allocator this process draws from.  The owning
        #: :class:`~repro.coordination.scheme.System` installs its own
        #: (one sequence per system, captured with warm-start images);
        #: bare processes built outside a system fall back to the
        #: module-wide test allocator.
        self.msg_ids: MsgIdAllocator = _default_msg_ids
        self.sn = SequenceAllocator()
        self.acks = AckTracker()
        self.dedup = ReceiveDeduplicator()
        self.journal_sent = Journal()
        self.journal_recv = Journal()
        self.msg_log = MessageLog()
        self.counters = CounterSet()
        #: Attached protocol engines (set via :meth:`attach_engines`).
        self.software = None
        self.hardware = None
        #: Default recipients for internal sends when no software engine
        #: routes them (plain processes).
        self.default_peers: List[ProcessId] = []
        #: Set when the process is taken out of service (a deposed
        #: ``P1_act`` after shadow takeover).
        self.deposed = False
        #: Coordinated-scheme mode: allocate per-destination sequence
        #: numbers on internal sends so deterministic replay after a
        #: rollback regenerates a dedup-able stream (the
        #: piecewise-determinism assumption of message-logging systems).
        #: The paper-faithful uncoordinated schemes leave this off.
        self.replay_dedup = False
        self._dsn_counters: Dict[ProcessId, int] = {}
        #: How long validated journal records are retained before the
        #: periodic compaction (run at stable-checkpoint completions)
        #: garbage-collects them.  Must comfortably exceed the stable
        #: checkpoint interval plus message-delay bounds.
        self.journal_retention: float = 600.0
        #: Per-process snapshot encoder: remembers the previous capture
        #: so journals and the message log encode as deltas.  Set
        #: ``incremental=False`` (via the system configs) to force full
        #: sections on every capture.
        self.snapshot_encoder = SnapshotEncoder()
        self._buffer: List[Message] = []
        self._deferred_actions: List[Action] = []
        self._pending_notifications: List[Message] = []
        self._deferred_acks: Dict[int, Message] = {}
        self._progress_offset = node.sim.now
        self._progress_at_crash: Optional[float] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_engines(self, software=None, hardware=None) -> None:
        """Attach the protocol engines (either may be ``None``)."""
        self.software = software
        self.hardware = hardware

    def start(self) -> None:
        """Begin executing the workload (and the hardware engine's
        timer, if one is attached)."""
        self.driver.start(self)
        if self.hardware is not None:
            self.hardware.start()

    # ------------------------------------------------------------------
    # progress accounting (rollback distance is measured in this unit)
    # ------------------------------------------------------------------
    @property
    def progress(self) -> float:
        """Accumulated computation, in work-seconds.

        Advances with true time and is rewound by checkpoint restores —
        the paper's "amount of computation quantified in time units that
        a process must undo" is a difference of two progress readings.
        """
        return self.sim.now - self._progress_offset

    def confidence_bit(self) -> int:
        """The bit the adapted TB protocol consults at timer expiry:
        ``pseudo_dirty_bit`` for a guarded active (paper footnote 2),
        the dirty bit for everyone else."""
        if self.is_guarded_active:
            return self.mdcd.pseudo_dirty_bit
        return self.mdcd.dirty_bit

    def current_ndc(self) -> Optional[int]:
        """The local stable-checkpoint epoch ``Ndc`` (``None`` when no
        hardware engine maintains one)."""
        if self.hardware is None:
            return None
        return getattr(self.hardware, "ndc", None)

    # ------------------------------------------------------------------
    # workload actions
    # ------------------------------------------------------------------
    def perform_action(self, action: Action) -> None:
        """Execute one workload action (called by the driver).

        Message-sending actions that land inside the process's own TB
        blocking period are deferred until the blocking ends — a blocked
        process neither reads nor sends application messages (paper
        Section 2.2); pure computation steps proceed.
        """
        if self.deposed or not self.alive:
            return
        if (action.kind is not ActionKind.LOCAL_STEP and self.hardware is not None
                and getattr(self.hardware, "in_blocking", False)):
            self._deferred_actions.append(action)
            self.counters.bump("blocked.deferred_send")
            return
        if action.kind is ActionKind.LOCAL_STEP:
            self.component.local_step(action.stimulus)
        elif action.kind is ActionKind.SEND_INTERNAL:
            if self.software is not None:
                self.software.on_send_internal(action)
            else:
                self._default_send_internal(action)
        elif action.kind is ActionKind.SEND_EXTERNAL:
            if self.software is not None:
                self.software.on_send_external(action)
            else:
                self._default_send_external(action)

    def _default_send_internal(self, action: Action) -> None:
        payload = self.component.produce_internal(action.stimulus)
        self.send_internal(payload, self.default_peers, sn=self.sn.allocate(),
                           dirty_bit=0, validated=True)

    def _default_send_external(self, action: Action) -> None:
        payload = self.component.produce_external(action.stimulus)
        self.send_external(payload, validated=True)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_internal(self, payload: Payload, receivers: List[ProcessId],
                      sn: Optional[int], dirty_bit: int, validated: bool,
                      ndc: Optional[int] = None,
                      taint_map: Optional[Dict[str, int]] = None) -> List[Message]:
        """Send an internal application message to each receiver.

        One logical send fans out to one :class:`Message` per receiver
        (each tracked separately for acknowledgement).  The sender's
        journal records its validity view at send time: messages sent
        from a clean state are born validated.  ``taint_map`` piggybacks
        per-source contamination provenance (N-component topologies).
        """
        sent = []
        for receiver in receivers:
            dsn = None
            if self.replay_dedup:
                dsn = self._dsn_counters.get(receiver, 0) + 1
                self._dsn_counters[receiver] = dsn
            message = Message(kind=MessageKind.INTERNAL, sender=self.process_id,
                              receiver=receiver, payload=payload, sn=sn,
                              ndc=ndc, dirty_bit=dirty_bit,
                              taint_map=dict(taint_map) if taint_map else None,
                              dsn=dsn, corrupt=payload.corrupt,
                              incarnation=self.incarnation.value,
                              msg_id=self.msg_ids.allocate())
            self.journal_sent.add(message, validated=validated, time=self.sim.now)
            self.acks.sent(message)
            self.transmit(message)
            sent.append(message)
        self.counters.bump("sent.internal")
        return sent

    def send_external(self, payload: Payload, validated: bool) -> Message:
        """Send an external message to the device world.

        External messages are not acknowledgement-tracked (they leave
        the system; hardware recovery must not replay commands that
        already reached a device — the AT/validation machinery governs
        them instead).
        """
        message = Message(kind=MessageKind.EXTERNAL, sender=self.process_id,
                          receiver=DEVICE, payload=payload,
                          corrupt=payload.corrupt,
                          incarnation=self.incarnation.value,
                          msg_id=self.msg_ids.allocate())
        self.journal_sent.add(message, validated=validated, time=self.sim.now)
        self.transmit(message)
        self.counters.bump("sent.external")
        return message

    def send_passed_at(self, receivers: List[ProcessId], msg_sn: Optional[int],
                       ndc: Optional[int],
                       bound_map: Optional[Dict[str, int]] = None) -> List[Message]:
        """Broadcast a "passed AT" notification.  ``bound_map`` carries
        the per-source certified bounds in N-component topologies."""
        sent = []
        for receiver in receivers:
            message = passed_at_notification(self.process_id, receiver, msg_sn, ndc,
                                             bound_map=bound_map,
                                             msg_id=self.msg_ids.allocate())
            message.incarnation = self.incarnation.value
            self.transmit(message)
            sent.append(message)
        self.counters.bump("sent.passed_at")
        return sent

    def resend(self, message: Message) -> Message:
        """Re-transmit a logical message during recovery (fresh msg_id,
        current incarnation, original dedup key).

        The clone supersedes the original in the acknowledgement
        tracker: the original's ack can never arrive (its delivery is
        fenced or was lost), so keeping it would leak.
        """
        clone = message.clone_for_resend(self.msg_ids)
        clone.incarnation = self.incarnation.value
        self.acks.acked(message.msg_id)
        self.acks.sent(clone)
        self.transmit(clone)
        self.counters.bump("resent")
        return clone

    def resend_unacknowledged(self, deposed=()) -> int:
        """Re-send every unacknowledged message under the current
        incarnation — each recovery's last step.

        The incarnation fence drops pre-recovery in-flight deliveries;
        a message this process sent (and still counts as sent) must
        therefore be re-transmitted or it would be lost to a receiver
        that rolled back past it.  Receivers that did process the
        original drop the re-send by dedup key.  Messages addressed to
        a ``deposed`` process id are written off — it is out of
        service.  Returns the number re-sent."""
        resent = 0
        for message in self.acks.unacknowledged():
            if message.receiver in deposed:
                self.acks.acked(message.msg_id)
                continue
            self.resend(message)
            resent += 1
        return resent

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> bool:
        """Entry point for network deliveries.

        Applies the incarnation fence, lets the hardware engine buffer
        deliveries that fall inside a blocking period, and otherwise
        dispatches to the software engine.

        Always returns ``False``: an :class:`FtProcess` suppresses the
        network's automatic acknowledgement and acknowledges explicitly
        (see :meth:`_acknowledge`), because an ack here certifies more
        than delivery — a buffered message is acked when *read*, and a
        potentially-contaminated message only when *validated*.  Until
        then the message stays in its sender's unacknowledged set, the
        TB protocols' handle for restoring it during recovery.
        """
        if message.incarnation < self.incarnation.value:
            self.counters.bump("dropped.stale_incarnation")
            return False
        if self.deposed:
            self.counters.bump("dropped.deposed")
            return False
        if self.hardware is not None and self.hardware.should_buffer(message):
            self._buffer.append(message)
            self.counters.bump(f"blocked.buffered.{message.kind.value}")
            if self.trace.wants("blocking.buffered"):
                self.trace.record(self.sim.now, "blocking.buffered",
                                  self.process_id, desc=message.describe())
            return False
        self.dispatch(message)
        return False

    def dispatch(self, message: Message) -> bool:
        """Process a delivery that is not buffered, and acknowledge it
        (immediately, or deferred until validation — see
        :meth:`_acknowledge`)."""
        if message.kind is MessageKind.PASSED_AT:
            local_ndc = self.current_ndc()
            if self.software is not None:
                self.software.on_passed_at(message)
            if (local_ndc is not None and message.ndc is not None
                    and message.ndc > local_ndc):
                # The notifier has already completed the stable
                # checkpoint epoch we have not: the engine's Ndc gate
                # rightly kept it from touching the current (or
                # in-progress) establishment, but the validation itself
                # is durable knowledge — the paper's write_disk is
                # synchronous, so a real process would consume this
                # message after Ndc catches up and the gate matches.
                # Stash it for reprocessing at establishment completion.
                self._pending_notifications.append(message)
                self.counters.bump("passed_at.deferred")
            self.counters.bump("recv.passed_at")
            self.network.ack(message)
            return True
        if self.dedup.is_duplicate(message):
            self.counters.bump("recv.duplicate")
            self._acknowledge(message)
            return True
        if self.software is not None:
            self.software.on_incoming_app(message)
        else:
            self.apply_app_message(message, validated=message.dirty_bit in (0, None))
        self._acknowledge(message)
        return True

    def _acknowledge(self, message: Message) -> None:
        """Acknowledge an application message — immediately if a future
        rollback of this process cannot forget it, otherwise deferred
        until the next validation event.

        The receiver's MDCD rollback target (its most recent volatile
        checkpoint) precedes (a) every message it applied as potentially
        contaminated and (b) *every* message — even a born-valid one —
        applied while the receiver itself was potentially contaminated
        (the Type-1 checkpoint that anchors the contamination interval
        was taken at its start).  In both cases rolling back forgets the
        message, so the sender must keep it re-sendable — i.e.
        unacknowledged — until a validation cleans the receiver, after
        which every future rollback target reflects it.  This extends
        the TB protocols' "ack certifies read" to "ack certifies a read
        that rollback cannot forget"; without it, a clean process
        feeding a contaminated one loses messages across the
        contamination interval (observed on ``1x1+K`` memberships,
        where processes off the contamination path keep sending into
        it).
        """
        record = self.journal_recv.get(message.dedup_key)
        if (message.kind is MessageKind.INTERNAL and record is not None
                and (not record.validated or self.confidence_bit() == 1)):
            self._deferred_acks[message.dedup_key] = message
            self.counters.bump("ack.deferred")
            return
        self.network.ack(message)

    def flush_deferred_acks(self) -> int:
        """Acknowledge deferred messages that a future rollback of this
        process can no longer forget: their records are validated *and*
        the process is clean again (so its next recovery anchor reflects
        them).  Called by the MDCD engines after every knowledge-update
        (validation) event; returns how many were released."""
        if self.confidence_bit() == 1:
            return 0
        released = 0
        for key in list(self._deferred_acks):
            record = self.journal_recv.get(key)
            if record is None or record.validated:
                self.network.ack(self._deferred_acks.pop(key))
                released += 1
        if released:
            self.counters.bump("ack.released", released)
        return released

    def apply_app_message(self, message: Message, validated: bool) -> None:
        """Record and apply an application message to the component.

        The journal record is timestamped with the message's *birth*
        (first transmission) so both ends of a re-sent message carry the
        same time — the pruning-horizon comparison in the checkers
        depends on that symmetry.
        """
        self.dedup.record(message)
        born = message.born_at if message.born_at > 0.0 else self.sim.now
        self.journal_recv.add(message, validated=validated, time=born)
        self.component.receive_internal(message.payload)
        self.counters.bump("recv.applied")

    def handle_ack(self, msg_id: int) -> None:
        """Network acknowledgement: release the in-flight record."""
        self.acks.acked(msg_id)

    # ------------------------------------------------------------------
    # blocking-period buffer
    # ------------------------------------------------------------------
    def release_buffer(self) -> int:
        """Dispatch messages buffered during a blocking period (in
        arrival order), then run the sends the blocking deferred.
        Returns how many buffered messages were processed."""
        pending, self._buffer = self._buffer, []
        processed = 0
        for message in pending:
            if message.incarnation < self.incarnation.value:
                self.counters.bump("dropped.stale_incarnation")
                continue
            self.dispatch(message)
            processed += 1
        deferred, self._deferred_actions = self._deferred_actions, []
        for action in deferred:
            self.perform_action(action)
        return processed

    def buffered_count(self) -> int:
        """Number of deliveries currently held by the blocking buffer."""
        return len(self._buffer)

    def reprocess_notifications(self) -> int:
        """Re-dispatch "passed AT" notifications that arrived ahead of
        the local stable-checkpoint epoch (see :meth:`dispatch`).
        Called by the TB engines right after ``Ndc`` advances; returns
        how many were replayed."""
        if not self._pending_notifications:
            return 0
        local_ndc = self.current_ndc()
        pending, self._pending_notifications = self._pending_notifications, []
        replayed = 0
        for message in pending:
            if message.incarnation < self.incarnation.value:
                continue
            if (local_ndc is not None and message.ndc is not None
                    and message.ndc > local_ndc):
                self._pending_notifications.append(message)
                continue
            if self.software is not None:
                self.software.on_passed_at(message)
            replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # checkpoint capture / restore
    # ------------------------------------------------------------------
    def make_snapshot(self) -> ProcessSnapshot:
        """The checkpointable state by reference, nothing copied: the
        codec's isolation freezes a capture, a live view reads at once."""
        return ProcessSnapshot(
            app_state=self.component.state,
            mdcd=self.mdcd,
            sn_value=self.sn.current,
            dedup_seen=self.dedup.seen,
            unacked=self.acks.unacknowledged(),
            journal_sent=self.journal_sent,
            journal_recv=self.journal_recv,
            msg_log=self.msg_log,
            cursor=self.driver.cursor,
            dsn_counters=self._dsn_counters,
        )

    def capture_checkpoint(self, kind: CheckpointKind,
                           epoch: Optional[int] = None,
                           content: Optional[StableContent] = None,
                           meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
        """Snapshot the current state into a checkpoint record (pure
        capture; the caller decides which store it goes to)."""
        base_meta = {"dirty_bit": self.mdcd.dirty_bit,
                     "pseudo_dirty_bit": self.mdcd.pseudo_dirty_bit}
        base_meta.update(meta or {})
        return Checkpoint.capture(
            process_id=self.process_id, kind=kind, state=self.make_snapshot(),
            taken_at=self.sim.now, work_done=self.progress, epoch=epoch,
            content=content, meta=base_meta, encoder=self.snapshot_encoder)

    def take_volatile_checkpoint(self, kind: CheckpointKind,
                                 meta: Optional[Dict[str, Any]] = None) -> Checkpoint:
        """Capture and save a volatile (RAM) checkpoint."""
        # Garbage-collect old validated journal records first: without a
        # hardware engine (pure MDCD) this is the only periodic hook, and
        # snapshot size would otherwise grow without bound.
        self.compact_journals()
        checkpoint = self.capture_checkpoint(kind, meta=meta)
        self.node.volatile.save(checkpoint)
        self.counters.bump(f"checkpoint.{kind.value}")
        if self.trace.enabled:
            self.trace.record(self.sim.now, f"checkpoint.volatile.{kind.value}",
                              self.process_id, work=checkpoint.work_done,
                              **(meta or {}))
        return checkpoint

    def compact_journals(self) -> int:
        """Garbage-collect old validated journal records (bounds the
        pickled size of checkpoints over long runs).  Called by the
        hardware engines at stable-checkpoint completions."""
        horizon = self.sim.now - self.journal_retention
        if horizon <= 0:
            return 0
        return (self.journal_sent.prune_validated_before(horizon)
                + self.journal_recv.prune_validated_before(horizon))

    def volatile_checkpoint(self) -> Optional[Checkpoint]:
        """The most recent volatile checkpoint (``rCKPT``), if any."""
        return self.node.volatile.peek(self.process_id)

    def restore_from(self, checkpoint: Checkpoint, reason: str) -> float:
        """Restore the process from ``checkpoint`` and return the
        rollback distance (work-seconds undone).

        Restores the application state, protocol knowledge, message
        bookkeeping and workload cursor; the driver then re-executes the
        undone actions, regenerating (and re-sending) their messages.
        """
        snapshot: ProcessSnapshot = checkpoint.restore_state()
        basis = self._progress_at_crash if self._progress_at_crash is not None \
            else self.progress
        self._progress_at_crash = None
        distance = max(0.0, basis - checkpoint.work_done)
        self.component.restore(snapshot.app_state)
        self.mdcd = snapshot.mdcd
        self.sn.restore(snapshot.sn_value)
        self.dedup.restore(snapshot.dedup_seen)
        self.acks.restore(snapshot.unacked)
        self.journal_sent = snapshot.journal_sent
        self.journal_recv = snapshot.journal_recv
        self.msg_log = snapshot.msg_log
        self._dsn_counters = dict(snapshot.dsn_counters)
        self._buffer = []
        self._deferred_actions = []
        self._pending_notifications = []
        self._deferred_acks = {}
        # The decoded journals/log replace the objects the encoder's
        # baselines describe: the next capture must emit full sections.
        self.snapshot_encoder.reset()
        self._progress_offset = self.sim.now - checkpoint.work_done
        self.driver.rewind_to(snapshot.cursor)
        self.counters.bump(f"rollback.{reason}")
        self.trace.record(self.sim.now, f"recovery.rollback.{reason}",
                          self.process_id, distance=distance,
                          kind=checkpoint.kind.value, epoch=checkpoint.epoch)
        return distance

    def roll_forward(self, reason: str) -> None:
        """Record a roll-forward decision (continue from current state)."""
        self.counters.bump(f"rollforward.{reason}")
        self.trace.record(self.sim.now, f"recovery.rollforward.{reason}",
                          self.process_id, progress=self.progress)

    # ------------------------------------------------------------------
    # role lifecycle
    # ------------------------------------------------------------------
    def depose(self) -> None:
        """Take the process out of service (failed ``P1_act``)."""
        self.deposed = True
        self.driver.pause()
        if self.hardware is not None:
            self.hardware.stop()
        self.trace.record(self.sim.now, "recovery.depose", self.process_id)

    def request_software_recovery(self, failed_message: Message) -> None:
        """Escalate a failed acceptance test to the system's software
        recovery manager (installed by the system builder)."""
        manager = getattr(self, "recovery_manager", None)
        if manager is None:
            from .errors import AcceptanceTestFailure
            raise AcceptanceTestFailure(
                f"AT failed at {self.process_id} and no recovery manager is installed")
        manager.recover(detected_by=self, failed_message=failed_message)

    # ------------------------------------------------------------------
    # crash handling
    # ------------------------------------------------------------------
    def on_node_crash(self) -> None:
        """Freeze on crash: remember progress for distance accounting,
        stop the workload, drop buffered deliveries (they were in RAM)."""
        self._progress_at_crash = self.progress
        self.driver.pause()
        self._buffer = []
        self._deferred_actions = []
        self._pending_notifications = []
        self._deferred_acks = {}
        if self.hardware is not None:
            self.hardware.on_crash()
