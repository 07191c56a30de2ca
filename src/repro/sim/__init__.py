"""Discrete-event distributed-system substrate.

This package contains everything "below" the fault-tolerance protocols:
the event kernel, seeded randomness, drifting clocks and timers, the
network with bounded delays and acknowledgements, crashable nodes with
volatile/stable storage, the process base class, structured tracing, and
statistics collectors.
"""

from .clock import ClockConfig, DriftingClock
from .events import Event, EventPriority
from .kernel import Simulator
from .monitor import CounterSet, RunningStat, summarize
from .network import Endpoint, Network, NetworkConfig, Transmission
from .node import Node
from .process import SimProcess
from .rng import RngRegistry, derive_seed
from .storage import StableStore, VolatileStore
from .timers import Alarm, TimerService
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Alarm",
    "ClockConfig",
    "CounterSet",
    "DriftingClock",
    "Endpoint",
    "Event",
    "EventPriority",
    "Network",
    "NetworkConfig",
    "Node",
    "RngRegistry",
    "RunningStat",
    "SimProcess",
    "Simulator",
    "StableStore",
    "TimerService",
    "TraceRecord",
    "TraceRecorder",
    "Transmission",
    "VolatileStore",
    "derive_seed",
    "summarize",
]
