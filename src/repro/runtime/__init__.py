"""Transport-agnostic protocol runtime: ports and substrate adapters.

The protocol layer (``host``, ``mdcd``, ``tb``, ``coordination``,
``middleware``) imports its substrate *only* from this package.  The
names re-exported here are the sim adapters — the default backend, and
the verification oracle — re-exported under substrate-neutral names so
protocol modules carry no ``repro.sim`` imports; ``repro.live``
provides the real-process adapters for the same ports.

Class definitions stay in their original ``repro.sim`` modules: pickled
artifacts (warm-start images, checkpoint payloads) reference classes by
their defining module, and those paths must stay stable.

Submodules (imported explicitly, not at package import time — they pull
in the protocol layer and would cycle):

* :mod:`repro.runtime.script` — scripted cross-backend workloads;
* :mod:`repro.runtime.sim_backend` — the discrete-event script runner;
* :mod:`repro.runtime.crosscheck` — the sim-vs-live equivalence driver.
"""

from ..sim.clock import ClockConfig, DriftingClock
from ..sim.events import Event, EventPriority
from ..sim.kernel import Simulator
from ..sim.monitor import CounterSet
from ..sim.network import Endpoint, Network, NetworkConfig, Transmission
from ..sim.node import Node
from ..sim.process import SimProcess
from ..sim.rng import RngRegistry, derive_seed
from ..sim.storage import StableStore, VolatileStore
from ..sim.timers import Alarm, TimerService
from ..sim.trace import TraceRecord, TraceRecorder
from .decisions import decisions_from_trace, diff_decisions, record_to_decision
from .ports import (CancellableEvent, ClockSource, CrashPort, SchedulerPort,
                    StablePort, TimerPort, TraceSink, TransportPort,
                    VolatilePort)
from .wire import (FrameReader, WireIntegrityError, decode_frame_payload,
                   encode_frame, message_from_dict, message_to_dict)

__all__ = [
    "Alarm",
    "CancellableEvent",
    "ClockConfig",
    "ClockSource",
    "CounterSet",
    "CrashPort",
    "DriftingClock",
    "Endpoint",
    "Event",
    "EventPriority",
    "FrameReader",
    "Network",
    "NetworkConfig",
    "Node",
    "RngRegistry",
    "SchedulerPort",
    "SimProcess",
    "Simulator",
    "StablePort",
    "StableStore",
    "TimerPort",
    "TimerService",
    "TraceRecord",
    "TraceRecorder",
    "TraceSink",
    "Transmission",
    "TransportPort",
    "VolatilePort",
    "VolatileStore",
    "WireIntegrityError",
    "decisions_from_trace",
    "decode_frame_payload",
    "derive_seed",
    "diff_decisions",
    "encode_frame",
    "message_from_dict",
    "message_to_dict",
    "record_to_decision",
]
