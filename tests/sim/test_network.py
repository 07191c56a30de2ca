"""Unit tests for the simulated network."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.messages.message import DEVICE, Message, MsgIdAllocator
from repro.sim.network import Endpoint, Network, NetworkConfig
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


def msg(sender="A", receiver="B", kind=MessageKind.INTERNAL, **kw):
    return Message(kind=kind, sender=ProcessId(sender),
                   receiver=ProcessId(receiver), msg_id=IDS.allocate(), **kw)


def register(network, name, deliver=None, on_ack=None, alive=None):
    got = []
    network.register(Endpoint(
        process_id=ProcessId(name),
        deliver=deliver if deliver is not None else (lambda m: got.append(m)),
        on_ack=on_ack,
        is_alive=alive if alive is not None else (lambda: True)))
    return got


class TestConfig:
    def test_rejects_negative_tmin(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(t_min=-1.0)

    def test_rejects_tmax_below_tmin(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(t_min=0.1, t_max=0.01)


class TestDelivery:
    def test_delivers_within_bounds(self, sim, network):
        got = register(network, "B")
        register(network, "A")
        m = msg()
        network.send(m)
        sim.run()
        assert got == [m]
        delay = sim.now - m.send_time
        assert network.config.t_min <= delay <= network.config.t_max

    def test_unknown_receiver_is_dropped(self, sim, network):
        register(network, "A")
        network.send(msg(receiver="nobody"))
        sim.run()
        assert network.dropped_count == 1

    def test_unknown_sender_endpoint_raises_on_lookup(self, network):
        with pytest.raises(NetworkError):
            network.endpoint(ProcessId("ghost"))

    def test_duplicate_registration_raises(self, network):
        register(network, "A")
        with pytest.raises(NetworkError):
            register(network, "A")

    def test_dead_receiver_drops(self, sim, network):
        register(network, "A")
        got = register(network, "B", alive=lambda: False)
        network.send(msg())
        sim.run()
        assert got == []
        assert network.dropped_count == 1

    def test_device_messages_land_in_device_log(self, sim, network):
        register(network, "A")
        m = msg(receiver=DEVICE, kind=MessageKind.EXTERNAL)
        network.send(m)
        sim.run()
        assert network.device_log == [m]

    def test_counters(self, sim, network):
        register(network, "A")
        register(network, "B")
        network.send(msg())
        sim.run()
        assert network.sent_count == 1
        assert network.delivered_count == 1


class TestFifo:
    def test_fifo_preserves_per_pair_order(self, sim, rng):
        network = Network(sim, NetworkConfig(t_min=0.001, t_max=0.5), rng)
        order = []
        network.register(Endpoint(ProcessId("B"), lambda m: order.append(m.msg_id)))
        register(network, "A")
        sent = [msg() for _ in range(30)]
        for m in sent:
            network.send(m)
        sim.run()
        assert order == [m.msg_id for m in sent]


class TestAcks:
    def test_accepted_delivery_is_acked(self, sim, network):
        acks = []
        register(network, "A", on_ack=acks.append)
        register(network, "B")
        m = msg()
        network.send(m)
        sim.run()
        assert acks == [m.msg_id]

    def test_rejected_delivery_is_not_acked(self, sim, network):
        acks = []
        register(network, "A", on_ack=acks.append)
        network.register(Endpoint(ProcessId("B"), lambda m: False))
        network.send(msg())
        sim.run()
        assert acks == []

    def test_none_return_counts_as_accepted(self, sim, network):
        acks = []
        register(network, "A", on_ack=acks.append)
        network.register(Endpoint(ProcessId("B"), lambda m: None))
        network.send(msg())
        sim.run()
        assert len(acks) == 1

    def test_ack_messages_are_not_acked(self, sim, network):
        acks = []
        register(network, "A", on_ack=acks.append)
        register(network, "B")
        network.send(msg(kind=MessageKind.ACK))
        sim.run()
        assert acks == []

    def test_explicit_ack(self, sim, network):
        acks = []
        register(network, "A", on_ack=acks.append)
        register(network, "B")
        m = msg()
        network.ack(m)
        sim.run()
        assert acks == [m.msg_id]

    def test_dead_sender_does_not_receive_ack(self, sim, network):
        acks = []
        alive = {"up": True}
        register(network, "A", on_ack=acks.append, alive=lambda: alive["up"])
        register(network, "B")
        network.send(msg())
        alive["up"] = False
        sim.run()
        assert acks == []


class TestInFlight:
    def test_in_flight_reflects_wire_contents(self, sim, network):
        register(network, "A")
        register(network, "B")
        m = msg()
        network.send(m)
        assert network.in_flight() == [m]
        sim.run()
        assert network.in_flight() == []

    def test_only_unsettled_transmissions_are_kept(self):
        """Over a horizon-900 campaign run with a crash in it the
        network holds the handful of transmissions still on the wire,
        not every one ever sent, and ``in_flight()`` answers what a
        scan of all of them would (send order included)."""
        from repro.app.faults import HardwareFaultPlan
        from repro.audit.campaign import build_audit_system
        from repro.audit.config import AuditConfig
        from repro.audit.schedule import FaultSchedule

        config = AuditConfig(scheme="naive", seed=7, horizon=900.0)
        system = build_audit_system(config, FaultSchedule(
            label="long", system_seed=3, origin="test",
            crashes=(HardwareFaultPlan(node_id="N2", crash_at=400.0,
                                       repair_time=5.0),)))
        network = system.network
        every, held = [], []

        def check():
            held.append(len(network._transmissions))
            assert network.in_flight() == [
                tx.message for tx in every
                if not tx.delivered and not tx.dropped]

        send = network.send

        def sending(message):
            every.append(send(message))
            check()
            return every[-1]
        network.send = sending
        for until in range(10, 901, 10):
            system.run(until=float(until))
            check()
        assert network.sent_count == len(every) > 150
        assert network.dropped_count > 0
        assert 1 < max(held) <= 16 and min(held) == 0
