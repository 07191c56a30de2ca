"""Unit tests for the SimProcess base class."""

import pytest

from repro.errors import NodeCrashedError
from repro.messages.message import Message, MsgIdAllocator
from repro.sim.process import SimProcess
from repro.types import MessageKind, ProcessId

#: The allocator these tests' hand-built messages mint their ids from.
IDS = MsgIdAllocator()


class Recorder(SimProcess):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.messages = []
        self.acks = []
        self.crashes = 0
        self.restarts = 0

    def handle_message(self, message):
        self.messages.append(message)
        return True

    def handle_ack(self, msg_id):
        self.acks.append(msg_id)

    def on_node_crash(self):
        self.crashes += 1

    def on_node_restart(self):
        self.restarts += 1


@pytest.fixture
def pair(sim, network, make_node):
    a = Recorder(ProcessId("A"), make_node("NA"), network)
    b = Recorder(ProcessId("B"), make_node("NB"), network)
    return a, b


def internal(sender, receiver, **kw):
    return Message(kind=MessageKind.INTERNAL, sender=sender.process_id,
                   receiver=receiver.process_id, msg_id=IDS.allocate(), **kw)


class TestTransmitAndDeliver:
    def test_roundtrip(self, sim, pair):
        a, b = pair
        m = internal(a, b)
        a.transmit(m)
        sim.run()
        assert b.messages == [m]
        assert a.acks == [m.msg_id]

    def test_transmit_refused_when_crashed(self, pair):
        a, b = pair
        a.node.crash()
        with pytest.raises(NodeCrashedError):
            a.transmit(internal(a, b))

    def test_delivery_to_crashed_node_is_dropped(self, sim, pair):
        a, b = pair
        a.transmit(internal(a, b))
        b.node.crash()
        sim.run()
        assert b.messages == []
        assert a.acks == []

    def test_crash_and_restart_hooks(self, pair):
        a, _ = pair
        a.node.crash()
        a.node.restart()
        assert a.crashes == 1
        assert a.restarts == 1

    def test_alive_reflects_node(self, pair):
        a, _ = pair
        assert a.alive
        a.node.crash()
        assert not a.alive

    def test_trace_records_send_and_deliver(self, sim, network, make_node, trace):
        a = Recorder(ProcessId("TA"), make_node("NTA"), network, trace)
        b = Recorder(ProcessId("TB"), make_node("NTB"), network, trace)
        a.transmit(internal(a, b))
        sim.run()
        assert trace.count("message.send") == 1
        assert trace.count("message.deliver") == 1
