"""The simulated network: bounded delivery delay, acknowledgements, and
in-flight introspection.

The TB protocols' correctness argument rests on two delay bounds — the
minimum and maximum message-delivery delay ``t_min`` and ``t_max`` —
which size the blocking periods (paper Table 1).  The network draws each
delivery delay uniformly from ``[t_min, t_max]`` (other distributions
can be plugged in) and automatically acknowledges delivered application
messages, feeding the senders' :class:`~repro.messages.sequence.AckTracker`.

Messages addressed to a crashed node are dropped (never acknowledged),
so the sender's unacknowledged set — saved into its next stable
checkpoint — is exactly the set hardware recovery must re-send.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError, NetworkError
from ..messages.message import DEVICE, Message
from ..types import MessageKind, ProcessId
from .events import EventPriority
from .kernel import Simulator
from .rng import BatchedUniform, RngRegistry


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Delay bounds of the network.

    ``t_min``/``t_max`` bound application and notification messages;
    acknowledgements use the same bounds (the protocols only need acks
    to be eventually delivered, not bounded, but bounded acks keep the
    simulation finite-horizon).  Channels are always FIFO (see
    :meth:`Network.send`).
    """

    t_min: float = 0.002
    t_max: float = 0.02

    def __post_init__(self) -> None:
        if self.t_min < 0 or self.t_max < self.t_min:
            raise ConfigurationError(f"invalid delay bounds: {self}")


def _always_alive() -> bool:
    """Default endpoint liveness (module-level so endpoints pickle)."""
    return True


@dataclasses.dataclass
class Endpoint:
    """A registered message consumer.

    ``deliver`` returns whether the message was accepted *and read*:
    the network acknowledges such deliveries.  A ``False`` return means
    the message was rejected (stale incarnation, crashed receiver) or
    merely buffered (a TB blocking period): no acknowledgement is
    generated — acknowledgements certify *reads*, which is what the TB
    recoverability argument needs (a buffered in-transit message must
    remain in the sender's unacknowledged set until actually consumed).
    A receiver that buffers acknowledges later via :meth:`Network.ack`.
    A ``None`` return counts as accepted, so plain callbacks work
    unchanged.
    """

    process_id: ProcessId
    deliver: Callable[[Message], Optional[bool]]
    on_ack: Optional[Callable[[int], None]] = None
    is_alive: Callable[[], bool] = _always_alive


@dataclasses.dataclass
class Transmission:
    """Bookkeeping for a message currently on the wire."""

    message: Message
    sent_at: float
    arrives_at: float
    delivered: bool = False
    dropped: bool = False


class Network:
    """Point-to-point message transport between registered endpoints."""

    def __init__(self, sim: Simulator, config: NetworkConfig,
                 rng_registry: RngRegistry) -> None:
        self._sim = sim
        self.config = config
        # One delay draw per message plus one per acknowledgement makes
        # this the hottest RNG consumer; the batched helper prefetches
        # blocks from the dedicated stream without changing the drawn
        # value sequence (see BatchedUniform).
        self._delay = BatchedUniform(rng_registry.stream("network"),
                                     config.t_min, config.t_max)
        self._endpoints: Dict[ProcessId, Endpoint] = {}
        #: Transmissions still on the wire, by send ordinal (so in send
        #: order); a settled one leaves, or every live-state check and
        #: every image would walk the run's whole message history.
        self._transmissions: Dict[int, Transmission] = {}
        self._last_arrival: Dict[tuple, float] = {}
        #: Everything delivered to the DEVICE pseudo-endpoint, in order.
        self.device_log: List[Message] = []
        #: Monitoring counters.
        self.sent_count: int = 0
        self.delivered_count: int = 0
        self.dropped_count: int = 0

    # ------------------------------------------------------------------
    def register(self, endpoint: Endpoint) -> None:
        """Attach a process to the network."""
        if endpoint.process_id in self._endpoints:
            raise NetworkError(f"endpoint {endpoint.process_id} already registered")
        self._endpoints[endpoint.process_id] = endpoint

    def endpoint(self, process_id: ProcessId) -> Endpoint:
        """Look up a registered endpoint."""
        try:
            return self._endpoints[process_id]
        except KeyError:
            raise NetworkError(f"unknown endpoint {process_id}") from None

    # ------------------------------------------------------------------
    def send(self, message: Message) -> Transmission:
        """Put ``message`` on the wire.

        Delivery happens after a delay drawn from ``[t_min, t_max]``.
        External messages to :data:`~repro.messages.message.DEVICE` are
        appended to :attr:`device_log` at delivery time.  Application and
        notification messages to live endpoints are acknowledged back to
        the sender after a further network delay.
        """
        message.send_time = self._sim.now
        if message.born_at == 0.0:
            message.born_at = self._sim.now
        arrives_at = self._sim.now + self._draw_delay()
        # FIFO channels (TCP-like): a later send on the same (sender,
        # receiver) pair never overtakes an earlier one.  The MDCD
        # notification semantics rely on this: a process's "passed AT"
        # broadcast must not be overtaken by messages it sends
        # afterwards.
        pair = (message.sender, message.receiver)
        floor = self._last_arrival.get(pair)
        if floor is not None and arrives_at <= floor:
            arrives_at = floor + 1e-9
        self._last_arrival[pair] = arrives_at
        tx = Transmission(message=message, sent_at=self._sim.now,
                          arrives_at=arrives_at)
        self.sent_count += 1
        self._transmissions[self.sent_count] = tx
        self._sim.schedule_at(tx.arrives_at, self._deliver,
                              args=(self.sent_count,),
                              priority=EventPriority.DELIVERY,
                              label="deliver")
        return tx

    def ack(self, message: Message) -> None:
        """Explicitly acknowledge ``message`` (used by receivers that
        buffered a delivery during a blocking period and have now read
        it)."""
        self._send_ack(message)

    def in_flight(self) -> List[Message]:
        """Messages currently on the wire (sent, not yet delivered or
        dropped) — the checkers use this to find in-transit messages."""
        return [tx.message for tx in self._transmissions.values()]

    # ------------------------------------------------------------------
    def _draw_delay(self) -> float:
        return self._delay.next()

    def _deliver(self, ordinal: int) -> None:
        tx = self._transmissions.pop(ordinal)
        message = tx.message
        if message.receiver == DEVICE:
            tx.delivered = True
            self.delivered_count += 1
            self.device_log.append(message)
            return
        endpoint = self._endpoints.get(message.receiver)
        if endpoint is None or not endpoint.is_alive():
            # Receiver unknown or crashed: the message is lost and never
            # acknowledged; the sender's AckTracker keeps it for re-send.
            tx.dropped = True
            self.dropped_count += 1
            return
        tx.delivered = True
        self.delivered_count += 1
        accepted = endpoint.deliver(message)
        if accepted is not False and message.kind != MessageKind.ACK:
            self._send_ack(message)

    def _send_ack(self, original: Message) -> None:
        sender_ep = self._endpoints.get(original.sender)
        if sender_ep is None or sender_ep.on_ack is None:
            return
        delay = self._draw_delay()
        self._sim.schedule_after(
            delay, self._deliver_ack, args=(original.sender, original.msg_id),
            priority=EventPriority.DELIVERY, label="ack")

    def _deliver_ack(self, sender: ProcessId, msg_id: int) -> None:
        endpoint = self._endpoints.get(sender)
        if endpoint is None or not endpoint.is_alive() or endpoint.on_ack is None:
            return
        endpoint.on_ack(msg_id)
