"""Cross-backend conformance: the same scripted workload must produce
the same protocol decisions on the discrete-event substrate and on real
OS processes, and the live adapters must honour the port contracts the
sim adapters define (reliable delivery with retry/dedup, durable
stable reads across a crash, timer re-arm across a clock resync)."""

import os
import pickle
import selectors
import socket

import pytest

from repro.cas import blob_digest
from repro.checkpoint import Checkpoint
from repro.errors import SchedulingError
from repro.live.clock import WallClock
from repro.live.harness import LiveHarness
from repro.live.loop import LiveScheduler
from repro.live.storage import FileStableStore
from repro.live.transport import LiveTransport
from repro.messages.message import Message
from repro.runtime import Endpoint, EventPriority, TimerService
from repro.runtime.script import ScriptOp, WorkloadScript, smoke_script, \
    topology_script
from repro.runtime.sim_backend import SimBackend
from repro.topology.model import Topology
from repro.types import CheckpointKind, MessageKind, ProcessId

from blob_damage import each_bit_flip

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ----------------------------------------------------------------------
# scripted decision conformance, parametrized over both backends
# ----------------------------------------------------------------------
class _ScriptRunner:
    """A backend-agnostic ``(seed, script) -> decisions`` runner;
    :meth:`chains` reads back each process's retained stable epochs
    after a run, oldest first as the chain holds them."""

    def __init__(self, backend, workdir):
        self.backend = backend
        self.workdir = workdir
        self._system = None

    def __call__(self, seed, script):
        if self.backend == "sim":
            sim = SimBackend(seed=seed)
            self._system = sim.system
            return sim.run_script(script)
        harness = LiveHarness(seed=seed, workdir=self.workdir, deadline=90.0)
        return harness.run_script(script)

    def chains(self):
        if self.backend == "sim":
            return {pid: proc.node.stable.epochs(proc.process_id)
                    for pid, proc in self._system.members.items()}
        # Every file the agent left, whatever its history would trim.
        return {member: FileStableStore(
                    os.path.join(self.workdir, f"stable_{member}"),
                    history=1_000).epochs(ProcessId(member))
                for member in ("P1_act", "P1_sdw", "P2")}


@pytest.fixture(params=["sim", "live"])
def run_script(request, tmp_path):
    return _ScriptRunner(request.param, str(tmp_path / "live"))


def long_outage_script():
    """The paper-shape standard script with the crashed node kept down
    through three establishments of the survivors — longer than the
    two-epoch history every store keeps by count."""
    ops = []
    for op in topology_script(Topology.paper()):
        ops.extend([ScriptOp("tb-round")] * 3 if op.op == "settle"
                   else [op])
    return WorkloadScript(ops=tuple(ops))


def _events(decisions, process):
    return [entry["event"] for entry in decisions.get(process, [])]


class TestScriptedConformance:
    def test_smoke_decision_ordering(self, run_script):
        decisions = run_script(3, smoke_script())
        active = decisions["P1_act"]
        # Guarded operation is declared before anything else happens.
        assert active[0] == {"event": "confidence.dirty", "bit": "dirty",
                             "reason": "guarded-active"}
        events = _events(decisions, "P1_act")
        # The internal send contaminates, the establishment copies the
        # pseudo checkpoint, the own AT cleans.
        assert events.index("checkpoint.volatile.pseudo") \
            < events.index("tb.establish.done")
        assert events.index("at.pass") \
            < events.index("confidence.clean")
        # Establishment epochs advance in order on every process.
        for process in ("P1_act", "P1_sdw", "P2"):
            epochs = [entry["epoch"] for entry in decisions[process]
                      if entry["event"] == "tb.establish.done"]
            assert epochs == sorted(epochs) == [1, 2]

    def test_smoke_establishment_contents(self, run_script):
        decisions = run_script(3, smoke_script())
        # Dirty establishment stores the volatile copy; after the AT
        # cleans the system the next establishment stores current state.
        contents = [entry["content"] for entry in decisions["P1_act"]
                    if entry["event"] == "tb.establish.done"]
        assert contents == ["volatile-copy", "current-state"]

    def test_crash_recovery_rolls_every_process_to_the_line(self, run_script):
        decisions = run_script(0, topology_script(Topology.paper()))
        for process in ("P1_act", "P1_sdw", "P2"):
            rollbacks = [entry for entry in decisions[process]
                         if entry["event"] == "recovery.rollback.hardware"]
            assert len(rollbacks) == 1, process
            assert rollbacks[0]["kind"] == "stable"
        lines = {entry["epoch"] for process in ("P1_act", "P1_sdw", "P2")
                 for entry in decisions[process]
                 if entry["event"] == "recovery.rollback.hardware"}
        assert len(lines) == 1  # one common recovery line
        line = lines.pop()
        # Establishments resume past the line after recovery.
        for process in ("P1_act", "P1_sdw", "P2"):
            epochs = [entry["epoch"] for entry in decisions[process]
                      if entry["event"] == "tb.establish.done"]
            assert epochs[-1] > line

    def test_long_outage_restores_one_line(self, run_script):
        decisions = run_script(0, long_outage_script())
        processes = ("P1_act", "P1_sdw", "P2")
        lines = {entry["epoch"] for process in processes
                 for entry in decisions[process]
                 if entry["event"] == "recovery.rollback.hardware"}
        assert len(lines) == 1, lines  # one common recovery line
        line = lines.pop()
        for process in processes:
            steps = [(entry["event"], entry["epoch"])
                     for entry in decisions[process]
                     if entry["event"] in ("tb.establish.done",
                                           "recovery.rollback.hardware")]
            rolled_back = steps.index(("recovery.rollback.hardware", line))
            # Establishments resume at line + 1.
            assert steps[rolled_back + 1] == ("tb.establish.done",
                                              line + 1), (process, steps)
        for process, chain in run_script.chains().items():
            assert chain == sorted(chain) and chain, (process, chain)

    def test_post_recovery_traffic_still_validates(self, run_script):
        decisions = run_script(0, topology_script(Topology.paper()))
        events = _events(decisions, "P1_act")
        # The final external op (after the crash + recovery) passes its
        # AT: at least two at.pass events in the run.
        assert events.count("at.pass") >= 2


class TestCrossBackendEquality:
    def test_smoke_script_identical_decisions(self, tmp_path):
        script = smoke_script()
        sim = SimBackend(seed=5).run_script(script)
        live = LiveHarness(seed=5, workdir=str(tmp_path / "x"),
                           deadline=90.0).run_script(script)
        assert live == sim


# ----------------------------------------------------------------------
# port conformance: reliable delivery (ack/retry/dedup)
# ----------------------------------------------------------------------
def _make_transport(name, port, peers, scheduler):
    selector = selectors.DefaultSelector()
    listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listen.bind(("127.0.0.1", port))
    listen.listen(4)
    transport = LiveTransport(ProcessId(name), scheduler, selector, listen,
                              peers=peers, session=f"session-{name}")
    transport.release_held()
    return transport, selector


def _pump(scheduler, selectors_, duration=0.05):
    import time
    end = time.monotonic() + duration
    while time.monotonic() < end:
        scheduler.run_due()
        for sel in selectors_:
            for key, _ in sel.select(0.005):
                key.data()


class TestLiveTransportReliability:
    def test_retry_until_receipted_then_dedup(self):
        ports = []
        for _ in range(2):
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            ports.append(probe.getsockname()[1])
            probe.close()
        clock = WallClock()
        scheduler = LiveScheduler(clock)
        a, sel_a = _make_transport("A", ports[0],
                                   {"B": ("127.0.0.1", ports[1])}, scheduler)
        b, sel_b = _make_transport("B", ports[1],
                                   {"A": ("127.0.0.1", ports[0])}, scheduler)
        delivered = []
        b.register(Endpoint(process_id=ProcessId("B"),
                            deliver=lambda m: delivered.append(m) or True))
        acked = []
        a.register(Endpoint(process_id=ProcessId("A"),
                            deliver=lambda m: True,
                            on_ack=lambda msg_id: acked.append(msg_id)))
        message = Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                          receiver=ProcessId("B"), payload=None, dsn=1)
        try:
            a.send(message)
            assert a.unreceipted_count() == 1
            # B is not being pumped: A retransmits on its backoff timer.
            _pump(scheduler, [sel_a], duration=0.2)
            assert a.counters["retransmits"] >= 1
            assert a.unreceipted_count() == 1
            # Pump both sides: the frame lands exactly once (duplicates
            # receipted and dropped), the receipt clears the retry, and
            # the protocol ack comes back.
            _pump(scheduler, [sel_a, sel_b], duration=0.4)
            assert [m.msg_id for m in delivered] == [message.msg_id]
            assert b.counters["duplicates"] >= 1
            assert a.unreceipted_count() == 0
            assert b.unreceipted_count() == 0
            assert acked == [message.msg_id]
        finally:
            a.close()
            b.close()
            sel_a.close()
            sel_b.close()


# ----------------------------------------------------------------------
# port conformance: durable stable reads across a crash
# ----------------------------------------------------------------------
def _stable_ckpt(pid, epoch, work):
    return Checkpoint.capture(ProcessId(pid), CheckpointKind.STABLE,
                              state={"w": work}, taken_at=work,
                              work_done=work, epoch=epoch)


NEWEST = "P2__00000002.ckpt"


def _write(root, name, data):
    (root / name).write_bytes(data)


def _digested(body):
    """A digest-valid file body, whoever wrote it."""
    return blob_digest(body).encode("ascii") + body


#: name -> (damage(root) applied to a directory holding P2 epochs 1 and
#: 2, files the restart must count as damaged, epochs it must serve).
STABLE_FILE_DAMAGE = {
    "truncated": (lambda root: _write(
        root, NEWEST, (root / NEWEST).read_bytes()[:-7]), 1, [1]),
    "emptied": (lambda root: _write(root, NEWEST, b""), 1, [1]),
    "foreign-bytes": (lambda root: _write(
        root, "P9__00000001.ckpt", b"not a checkpoint at all"), 1, [1, 2]),
    "foreign-pickle": (lambda root: _write(
        root, "P9__00000001.ckpt", _digested(pickle.dumps({"w": 9.0}))),
        1, [1, 2]),
    "foreign-unpicklable": (lambda root: _write(
        root, "P9__00000001.ckpt", _digested(b"verifies, not a pickle")),
        1, [1, 2]),
    "misfiled-epoch": (lambda root: _write(
        root, "P2__00000007.ckpt", (root / "P2__00000001.ckpt").read_bytes()),
        1, [1, 2]),
    "pre-digest-format": (lambda root: _write(
        root, "P9__00000001.ckpt", pickle.dumps(_stable_ckpt("P9", 1, 1.0))),
        1, [1, 2]),
    "leftover-tmp": (lambda root: _write(
        root, "P2__00000003.ckpt.tmp", b"torn half-written checkpoint"),
        0, [1, 2]),
}


class TestDurableStableStore:
    def test_read_after_restart_sees_saved_chain(self, tmp_path):
        root = str(tmp_path / "stable")
        store = FileStableStore(root, history=2)
        for epoch in (0, 1, 2, 3):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))
        # "kill -9": drop the in-memory store, rebuild from the files.
        rebuilt = FileStableStore(root, history=2)
        assert rebuilt.epochs(ProcessId("P2")) == [2, 3]
        latest = rebuilt.latest(ProcessId("P2"))
        assert latest.epoch == 3
        assert latest.restore_state() == {"w": 3.0}

    def test_discard_after_epoch_prunes_files_durably(self, tmp_path):
        root = str(tmp_path / "stable")
        store = FileStableStore(root, history=4)
        for epoch in (0, 1, 2, 3):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))
        assert store.discard_after_epoch(ProcessId("P2"), 1) == 2
        rebuilt = FileStableStore(root, history=4)
        assert rebuilt.epochs(ProcessId("P2")) == [0, 1]

    def test_held_store_keeps_files_from_the_floor_until_recovery(
            self, tmp_path):
        root = str(tmp_path / "stable")
        store = FileStableStore(root, history=2)
        pid = ProcessId("P2")
        for epoch in (1, 2):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))
        store.hold(2)  # a member whose newest epoch is 2 went down
        for epoch in (3, 4, 5):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))

        def on_disk():
            return FileStableStore(root, history=1_000).epochs(pid)
        assert store.epochs(pid) == on_disk() == [2, 3, 4, 5]
        # hw-recover: the hold lifts and the restore to line 2 discards
        # the abandoned epochs, files included.
        store.hold(None)
        assert store.discard_after_epoch(pid, 2) == 3
        assert store.epochs(pid) == on_disk() == [2]
        for epoch in (3, 4):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))
        assert store.epochs(pid) == on_disk() == [3, 4]

    def test_interrupted_write_leaves_old_state(self, tmp_path):
        root = str(tmp_path / "stable")
        store = FileStableStore(root, history=2)
        store.save(_stable_ckpt("P2", 1, 1.0))
        # A crash mid-write leaves a .tmp the rename never blessed.
        with open(os.path.join(root, "P2__00000002.ckpt.tmp"), "wb") as f:
            f.write(b"torn half-written checkpoint")
        rebuilt = FileStableStore(root, history=2)
        assert rebuilt.epochs(ProcessId("P2")) == [1]
        assert not any(name.endswith(".tmp") for name in os.listdir(root))


    def test_every_single_bit_flip_is_a_miss_never_a_raise(self, tmp_path):
        """Exhaustive over one stored checkpoint file, digest and body:
        a restart reads the newest epoch back exactly as it was written
        or not at all, and falls back to the epoch before it."""
        root = tmp_path / "stable"
        store = FileStableStore(str(root), history=2)
        for epoch in (1, 2):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))
        newest = root / NEWEST
        flips = 0
        for bit in each_bit_flip(newest):
            rebuilt = FileStableStore(str(root), history=2)
            assert rebuilt.damaged_files == 1, bit
            assert rebuilt.epochs(ProcessId("P2")) == [1], bit
            assert rebuilt.latest(ProcessId("P2")) == store.at_epoch(
                ProcessId("P2"), 1), bit
            flips += 1
        assert flips == 8 * newest.stat().st_size
        pristine = FileStableStore(str(root), history=2)
        assert pristine.damaged_files == 0
        assert pristine.history(ProcessId("P2")) == store.history(
            ProcessId("P2"))

    @pytest.mark.parametrize("damage", sorted(STABLE_FILE_DAMAGE))
    def test_damaged_file_is_counted_and_skipped(self, tmp_path, damage):
        apply, damaged, epochs = STABLE_FILE_DAMAGE[damage]
        root = tmp_path / "stable"
        store = FileStableStore(str(root), history=3)
        for epoch in (1, 2):
            store.save(_stable_ckpt("P2", epoch, float(epoch)))
        apply(root)
        rebuilt = FileStableStore(str(root), history=3)
        assert rebuilt.damaged_files == damaged
        assert rebuilt.history(ProcessId("P2")) == [
            store.at_epoch(ProcessId("P2"), epoch) for epoch in epochs]
        assert rebuilt.epochs(ProcessId("P9")) == []
        # ... and the store keeps working over the damage.
        rebuilt.save(_stable_ckpt("P2", 3, 3.0))
        assert FileStableStore(str(root), history=3).latest(
            ProcessId("P2")).restore_state() == {"w": 3.0}


# ----------------------------------------------------------------------
# port conformance: timers survive a clock resync on both substrates
# ----------------------------------------------------------------------
@pytest.fixture(params=["sim", "live"])
def timer_substrate(request):
    if request.param == "sim":
        from repro.runtime import (ClockConfig, DriftingClock, RngRegistry,
                                   Simulator)
        sim = Simulator()
        clock = DriftingClock(sim, ClockConfig(), RngRegistry(0), "N")
        return sim, clock, lambda until: sim.run(until=until)

    clock = WallClock()
    scheduler = LiveScheduler(clock)

    def advance(until):
        import time
        while scheduler.now < until:
            scheduler.run_due()
            time.sleep(0.005)
    return scheduler, clock, advance


class TestTimerResyncConformance:
    def test_alarm_fires_once_across_resync(self, timer_substrate):
        scheduler, clock, advance = timer_substrate
        timers = TimerService(scheduler, clock)
        fired = []
        timers.set_alarm(clock.now() + 0.05, lambda: fired.append("a"),
                         label="conformance")
        clock.resync()  # re-anchors and re-arms pending alarms
        advance(scheduler.now + 0.2)
        assert fired == ["a"]
        assert timers.pending() == 0

    def test_cancel_before_fire(self, timer_substrate):
        scheduler, clock, advance = timer_substrate
        timers = TimerService(scheduler, clock)
        fired = []
        alarm = timers.set_alarm(clock.now() + 0.05,
                                 lambda: fired.append("a"), label="c2")
        alarm.cancel()
        advance(scheduler.now + 0.15)
        assert fired == []

    def test_negative_delay_rejected(self, timer_substrate):
        scheduler, clock, _advance = timer_substrate
        timers = TimerService(scheduler, clock)
        with pytest.raises(SchedulingError):
            timers.set_alarm_after(-1.0, lambda: None)


# ----------------------------------------------------------------------
# port conformance: both schedulers order and cancel events alike
# ----------------------------------------------------------------------
@pytest.fixture(params=["sim", "live"])
def scheduler_substrate(request):
    if request.param == "sim":
        from repro.runtime import Simulator
        sim = Simulator()
        return sim, lambda until: sim.run(until=until)

    scheduler = LiveScheduler(WallClock())

    def advance(until):
        import time
        while scheduler.now < until:
            scheduler.run_due()
            time.sleep(0.005)
    return scheduler, advance


def _fire_order(scheduler, advance, specs):
    """Schedule ``(label, delay, priority)`` specs in list order, run
    past the last one, and return the labels in firing order."""
    fired = []
    start = scheduler.now
    for label, delay, priority in specs:
        scheduler.schedule_at(start + delay, fired.append, args=(label,),
                              priority=priority, label=label)
    advance(start + max(delay for _label, delay, _p in specs) + 0.1)
    return fired


ACTION = EventPriority.ACTION


class TestSchedulerConformance:
    def test_orders_by_time(self, scheduler_substrate):
        assert _fire_order(*scheduler_substrate, [
            ("late", 0.08, ACTION), ("early", 0.04, ACTION)]) == [
                "early", "late"]

    def test_same_time_orders_by_priority(self, scheduler_substrate):
        assert _fire_order(*scheduler_substrate, [
            ("control", 0.05, EventPriority.CONTROL),
            ("action", 0.05, EventPriority.ACTION),
            ("timer", 0.05, EventPriority.TIMER),
            ("delivery", 0.05, EventPriority.DELIVERY)]) == [
                "delivery", "timer", "action", "control"]

    def test_same_time_same_priority_orders_by_insertion(
            self, scheduler_substrate):
        assert _fire_order(*scheduler_substrate, [
            (label, 0.05, ACTION) for label in "abcd"]) == list("abcd")

    def test_seq_numbers_insertion_and_breaks_the_last_tie(
            self, scheduler_substrate):
        scheduler, advance = scheduler_substrate
        due = scheduler.now + 0.05
        fired = []
        events = [scheduler.schedule_at(due, fired.append, args=(label,),
                                        label=label)
                  for label in ("first", "second")]
        assert events[0].seq < events[1].seq
        advance(due + 0.1)
        assert fired == ["first", "second"]

    def test_priority_beats_insertion_order(self, scheduler_substrate):
        assert _fire_order(*scheduler_substrate, [
            ("inserted-first", 0.05, EventPriority.CONTROL),
            ("inserted-later", 0.05, EventPriority.DELIVERY)]) == [
                "inserted-later", "inserted-first"]

    def test_cancelled_flag_does_not_affect_ordering(
            self, scheduler_substrate):
        scheduler, advance = scheduler_substrate
        start = scheduler.now
        fired = []
        events = [scheduler.schedule_at(start + delay, fired.append,
                                        args=(label,), label=label)
                  for label, delay in (("c", 0.06), ("a", 0.02),
                                       ("b", 0.04))]
        events[1].cancel()
        assert events[1].cancelled
        advance(start + 0.16)
        assert fired == ["b", "c"]

    def test_same_instant_fires_by_priority_then_insertion(
            self, scheduler_substrate):
        scheduler, advance = scheduler_substrate
        due = scheduler.now + 0.05
        fired = []
        for label, priority in (("c1", EventPriority.CONTROL),
                                ("a1", EventPriority.ACTION),
                                ("d1", EventPriority.DELIVERY),
                                ("a2", EventPriority.ACTION),
                                ("t1", EventPriority.TIMER),
                                ("d2", EventPriority.DELIVERY)):
            scheduler.schedule_at(due, fired.append, args=(label,),
                                  priority=priority, label=label)
        advance(due + 0.1)
        assert fired == ["d1", "d2", "t1", "a1", "a2", "c1"]

    def test_cancelled_event_never_fires(self, scheduler_substrate):
        scheduler, advance = scheduler_substrate
        due = scheduler.now + 0.05
        fired = []
        events = scheduler.schedule_many(
            [(due, fired.append, (label,), EventPriority.ACTION, label)
             for label in ("a", "b", "c")])
        events[1].cancel()
        events[1].cancel()
        scheduler.schedule_after(0.02, events[2].cancel,
                                 priority=EventPriority.CONTROL)
        advance(due + 0.1)
        assert fired == ["a"]
