"""Message records exchanged by simulated processes.

A :class:`Message` carries both *protocol-visible* fields (kind, sender,
sequence number ``sn``, piggybacked ``dirty_bit`` and stable-checkpoint
epoch ``ndc`` — exactly the fields the paper's Appendix A algorithms
append) and *ground-truth* metadata that protocols must never branch on:
the hidden ``corrupt`` flag that tracks actual error propagation, used
only by acceptance tests (to model detection) and by the analysis
checkers (to judge the protocol's conservatism).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..types import MessageKind, ProcessId

#: Destination pseudo-process for external messages (devices / ground).
DEVICE: ProcessId = ProcessId("DEVICE")


class MsgIdAllocator:
    """A message-id sequence owned by one builder of processes (a
    :class:`~repro.coordination.scheme.System`, a live agent, Fig. 2's
    pair); senders mint every message's id from it.

    Ids only need to be unique within one system, but they must be a
    deterministic function of *that system's* execution — audit
    findings and golden traces are byte-identical whether a schedule
    runs first, last, or in a worker subprocess.  Making the allocator
    per-system state (captured and thawed with the rest of the system
    in warm-start images) lets many thawed systems coexist in one OS
    process with no global state: flock forks interleave freely.
    """

    __slots__ = ("next_id",)

    def __init__(self) -> None:
        self.next_id = 1

    def allocate(self) -> int:
        """Consume and return the next message id."""
        mid = self.next_id
        self.next_id = mid + 1
        return mid

    def position(self) -> int:
        """The next id :meth:`allocate` would hand out (not consumed)."""
        return self.next_id


def _unminted() -> int:
    raise TypeError("a Message needs a msg_id: its sender mints one from "
                    "its MsgIdAllocator")


@dataclasses.dataclass
class Message:
    """A single message instance.

    Attributes
    ----------
    kind:
        Internal application message, external message, "passed AT"
        notification, or network-level ack.
    sender, receiver:
        Process identifiers; ``receiver`` may be :data:`DEVICE`.
    payload:
        Application data (opaque to the protocols).  For ``PASSED_AT``
        notifications the payload is ``None`` and the meaning travels in
        ``sn``/``ndc``.
    sn:
        The sender's message sequence number (the paper's ``msg_SN``).
        ``None`` for messages the algorithms send with a ``null`` SN
        (e.g. external messages, acks).
    ndc:
        Piggybacked stable-storage checkpoint epoch (the paper's
        ``Ndc``), present on internal messages and "passed AT"
        notifications in the modified protocols.
    dirty_bit:
        Piggybacked sender dirty bit on internal messages (``append(m,
        dirty_bit)`` in Appendix A).
    corrupt:
        **Ground truth only.**  Whether the payload is actually affected
        by an activated software design fault.  Protocol logic must not
        read this; acceptance tests use it to model detection and the
        invariant checkers use it to audit the protocol's view.
    resend_of:
        If this message is a recovery re-send, the ``msg_id`` of the
        original transmission (receivers use it for deduplication).
    incarnation:
        The system recovery incarnation at send time.  After a recovery
        the incarnation is bumped and receivers drop lower-incarnation
        deliveries (without acknowledging them): a message from "before
        the rollback" must not leak into the recovered computation —
        if it is still needed, the sender's recovery re-sends or
        re-executes it under the new incarnation.
    """

    kind: MessageKind
    sender: ProcessId
    receiver: ProcessId
    payload: Any = None
    sn: Optional[int] = None
    ndc: Optional[int] = None
    dirty_bit: Optional[int] = None
    #: Per-source contamination provenance (N-component topologies):
    #: maps each guarded active's role id to the highest sequence
    #: number of that active influencing the sender's state when this
    #: message was produced.  On ``PASSED_AT`` notifications the same
    #: field carries the *certified bound map* of the validation.
    #: ``None`` on clean sends and in the paper's three-process
    #: protocols (where the chain topology makes provenance implicit).
    taint_map: Optional[dict] = None
    #: Destination sequence number (coordinated schemes): the
    #: k-th internal message this sender addressed to this receiver.
    #: Under the piecewise-determinism assumption a rolled-back sender's
    #: replay regenerates the same (sender, receiver, dsn) stream with
    #: identical content, so receivers deduplicate replayed sends just
    #: like recovery re-sends.  ``None`` under the paper-faithful
    #: uncoordinated schemes.
    dsn: Optional[int] = None
    corrupt: bool = False
    resend_of: Optional[int] = None
    incarnation: int = 0
    #: Minted by the sender: a message built without one raises.  The
    #: field keeps its position (it orders the pickled checkpoint bytes).
    msg_id: int = dataclasses.field(default_factory=_unminted)
    send_time: float = 0.0
    #: Time of the logical message's *first* transmission (preserved by
    #: recovery re-sends).  Journals timestamp records with this, so the
    #: sender's and receiver's views of one message carry identical
    #: times even when a re-send arrives after a long repair outage.
    born_at: float = 0.0

    @property
    def is_application(self) -> bool:
        """Whether this is an application-purpose message (internal or
        external), as opposed to a notification or an ack."""
        return self.kind in (MessageKind.INTERNAL, MessageKind.EXTERNAL)

    @property
    def dedup_key(self):
        """Logical identity used by receivers to drop duplicates.

        With a destination sequence number (coordinated schemes) the
        identity is ``(sender, receiver, dsn)`` — stable across both
        recovery re-sends and deterministic replay; otherwise it is the
        original ``msg_id`` (stable across re-sends only)."""
        if self.dsn is not None:
            return (str(self.sender), str(self.receiver), self.dsn)
        return self.resend_of if self.resend_of is not None else self.msg_id

    def clone_for_resend(self, allocator: MsgIdAllocator) -> "Message":
        """A fresh transmission of the same logical message.

        The clone gets a new ``msg_id`` (it is a distinct transmission
        for ack purposes) from ``allocator`` — the sender's — but
        remembers the original in ``resend_of``.
        """
        return dataclasses.replace(
            self, msg_id=allocator.allocate(),
            resend_of=self.dedup_key,
        )

    def describe(self) -> str:
        """Compact human-readable form used in traces."""
        bits = [f"{self.kind.value}", f"{self.sender}->{self.receiver}"]
        if self.sn is not None:
            bits.append(f"sn={self.sn}")
        if self.ndc is not None:
            bits.append(f"ndc={self.ndc}")
        if self.dirty_bit is not None:
            bits.append(f"db={self.dirty_bit}")
        if self.corrupt:
            bits.append("CORRUPT")
        return " ".join(bits)


def passed_at_notification(sender: ProcessId, receiver: ProcessId,
                           msg_sn: Optional[int], ndc: Optional[int],
                           bound_map: Optional[dict] = None, *,
                           msg_id: int) -> Message:
    """Build a "passed AT" notification (one per recipient).

    ``msg_sn`` is the sequence number of the last message of ``P1_act``
    covered by the validation (the paper's ``msg_SN_P1act``); ``ndc`` is
    the sender's current stable-checkpoint epoch.  ``bound_map`` is the
    per-source form of ``msg_sn`` in N-component topologies: each
    guarded active's role id mapped to the highest sequence number of
    that active the validation certifies.  ``msg_id`` is the sender's,
    minted from its allocator.
    """
    return Message(kind=MessageKind.PASSED_AT, sender=sender, receiver=receiver,
                   payload=None, sn=msg_sn, ndc=ndc,
                   taint_map=dict(bound_map) if bound_map else None,
                   msg_id=msg_id)
