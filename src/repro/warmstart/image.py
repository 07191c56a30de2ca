"""Full-system images: one freeze/thaw codec, one shared-object table.

Every copy the accelerated paths make of a mid-run system — a
warm-start resume, a fork off a flock template
(:class:`~repro.flock.template.ForkTemplate`) — is a
:class:`SystemImage` frozen by :func:`capture` and thawed by
:func:`resume`.  It holds all the run's future depends on: the
simulator (event heap, sequencer, pending cancellations), every RNG
stream at its exact position, clocks, timers, nodes, stores, processes,
the per-system message-id allocator, the trace so far, the armed
faults' pending events and, optionally, the online auditor.  The
contract (asserted by the warm-start and flock tests and the campaign
ledger's cold cross-check): a thawed copy run to the horizon produces
the *bit-for-bit* identical trace, findings and counters as the
original running uninterrupted, whatever other copies do.

Pickling the whole graph per copy would re-encode hundreds of kilobytes
every copy shares with the reference it was taken from: the frozen
configs, the topology, the workload action streams, the trace segments
so far, every already-written checkpoint.  :class:`ForkContext` is the
table of those *fork-safe* objects: the pickler swaps each for a small
table reference, the unpickler resolves it back to the very same
object.  An image set is one table plus one table-relative dump per
capture instant (each freezes the same reference a little later); a
template's dump cache is the same thing, resident.

Fork safety rule (the contract a ``share`` call asserts): an object may
be shared only if **nothing reachable exclusively through it is
mutated** by any thawed copy's run (warm resumes and shrink replays,
in any order and any number of times per dump), by the reference's
further advancement, or by a later copy's run.  Immutable values
(frozen dataclasses whose fields are themselves safe, strings, bytes)
qualify trivially; mutable containers qualify only when the code base
replaces them wholesale instead of mutating them in place (the
:class:`~repro.sim.rng.BatchedUniform` prefetch block, a workload
driver's action list).  Anything a copy writes to — journals, message
logs, RNG streams, the event heap, the per-system message-id allocator,
live component state — must stay private and travel through the dump.

Rollback clause: the rule holds after the thaw.  A rollback decodes a
checkpoint every copy shares, and what its ``journals`` / ``msg_log``
sections resolve to stays on the shared payload
(:mod:`repro.snapshot.sections`): each rollback takes its own
containers and its own copy of every unvalidated journal record, and
shares validated records and log entries (written once; re-sends build
or clone new messages).  The remembered value is not pickled state, so
it reaches neither the table nor a dump.

The table is **grow-only**: dumps taken while the table held ``n``
entries reference only indices ``< n``, so they stay decodable after
the reference advances and registers more objects.  This is what lets
every image of a set share one table, and a shrink search fork from
*earlier* cached dumps after the template has moved past them.  Each
dump opens with its table's tag and that ``n``: a dump is decodable
only against its own table, and :meth:`ForkContext.loads` refuses
anything else instead of resolving its references to the wrong objects.
A reference is a plain table index: the C unpickler's
``persistent_load`` *is* the table's ``__getitem__``.

Strings are additionally shared *by value*: profiling the dump of a
mid-run system shows short strings (process ids, section names, trace
labels, dict keys) are the single largest class of repeated pickle
work.  Strings are immutable, so value-sharing is always safe.
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import random
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Strings shorter than this inline cheaper than a table reference.
SHARED_STR_MIN = 8

#: What every dump opens with: the dump format, its table's tag, and
#: the table's length when the dump was taken.
_HEADER = struct.Struct(">B8sI")

#: Bumped whenever a dumped object changes shape, so an older dump is
#: refused by its header instead of thawing wrong (DESIGN.md lists the
#: formats).  11: an online auditor keeps the verdicts of the stable
#: lines it checked and the process last seen lacking each pending
#: epoch.
_FORMAT = 11


class ForkContext:
    """Grow-only shared-object table backing one reference's dumps."""

    def __init__(self) -> None:
        #: Names this table in its dumps' headers; random, because two
        #: builds of one prefix are still two tables.
        self.tag = os.urandom(8)
        #: The table itself.  Holding strong references is load-bearing
        #: twice over: dumps stay decodable for the template's
        #: lifetime, and no id is ever reused while it is a key below.
        self._objects: List[Any] = []
        self._index_by_id: Dict[int, int] = {}
        self._index_by_str: Dict[str, int] = {}
        #: RNG streams are shared by *state snapshot*, not by object:
        #: each fork must get its own Random (draws in one fork must
        #: not perturb another), but the 625-word Mersenne state at
        #: fork time is identical across the whole flock, so it lives
        #: in the table once per advancement instead of once per dump.
        #: ``id(stream)`` -> (the stream, pinning the id; its snapshot).
        self._rng_states: Dict[int, Tuple[random.Random, tuple]] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def __getstate__(self):
        return self.tag, self._objects

    def __setstate__(self, state) -> None:
        """A table read back decodes every dump the pickled one did
        and, its indices rebuilt over the decoded objects, can go on
        growing: a template thawed from it re-registers nothing."""
        self.__init__()
        self.tag, self._objects = state
        for idx, obj in enumerate(self._objects):
            if type(obj) is str:
                self._index_by_str[obj] = idx
            else:
                self._index_by_id[id(obj)] = idx

    # ------------------------------------------------------------------
    def share(self, obj: Any) -> None:
        """Register one fork-safe object (idempotent)."""
        key = id(obj)
        if key not in self._index_by_id:
            self._index_by_id[key] = len(self._objects)
            self._objects.append(obj)

    def share_all(self, objects: Iterable[Any]) -> None:
        for obj in objects:
            self.share(obj)

    def share_rng(self, rng: random.Random) -> None:
        """Snapshot ``rng``'s current state into the table.

        Dumps taken from now on encode the stream as
        ``_thaw_rng(<reference to this snapshot>)``; each load
        materialises a *fresh* ``Random`` from it.  Re-registering
        after the stream has drawn appends a new snapshot (grow-only:
        earlier dumps keep decoding to the state they were taken at)."""
        state = rng.getstate()
        known = self._rng_states.get(id(rng))
        if known is None or known[1] != state:
            self._rng_states[id(rng)] = (rng, state)
            self.share(state)

    # ------------------------------------------------------------------
    def _persistent_id(self, obj: Any):
        # Exact-type checks: a str/list *subclass* may carry extra
        # mutable state the table must not alias.
        if type(obj) is str:
            if len(obj) < SHARED_STR_MIN:
                return None
            idx = self._index_by_str.get(obj)
            if idx is None:
                idx = len(self._objects)
                self._objects.append(obj)
                self._index_by_str[obj] = idx
            return idx
        return self._index_by_id.get(id(obj))

    def dumps(self, state: Any) -> bytes:
        """Encode ``state`` with shared objects as table references."""
        buffer = io.BytesIO()
        _ForkPickler(buffer, self).dump(state)
        # Strings joined the table while the body was written.
        return _HEADER.pack(_FORMAT, self.tag, len(self)) + buffer.getvalue()

    def owns(self, data: bytes) -> bool:
        """Whether ``data`` is a dump of this table, in the format this
        code reads, at no more than the table's present length."""
        if len(data) < _HEADER.size:
            return False
        fmt, tag, length = _HEADER.unpack_from(data)
        return (fmt, tag) == (_FORMAT, self.tag) and length <= len(self)

    def loads(self, data: bytes) -> Any:
        """Decode a dump; table references resolve to the originals."""
        if not self.owns(data):
            raise ValueError("dump was not taken against this table")
        unpickler = pickle.Unpickler(io.BytesIO(data[_HEADER.size:]))
        unpickler.persistent_load = self._objects.__getitem__
        return unpickler.load()


class _ForkPickler(pickle.Pickler):
    def __init__(self, buffer, context: ForkContext) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._context = context

    def persistent_id(self, obj: Any):
        return self._context._persistent_id(obj)

    def reducer_override(self, obj: Any):
        # A registered stream is a call on its shared snapshot (a table
        # reference).  Pickle's own memo resolves every reference to it
        # inside one dump (the registry entry, a clock's `_rng`, a
        # BatchedUniform's bound `random`) to the one stream that call
        # returns — or the fork's draw sequence would diverge.
        if type(obj) is random.Random:
            known = self._context._rng_states.get(id(obj))
            if known is not None:
                return _thaw_rng, (known[1],)
        return NotImplemented


def _thaw_rng(state: tuple) -> random.Random:
    """A fresh stream at ``state`` (no ``os.urandom`` seeding first)."""
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng


def collect_shared(context: ForkContext, system, auditor=None) -> None:
    """Register everything fork-safe reachable from ``system``.

    Called before a reference's first dump and again after every
    advancement (``share`` is idempotent; only genuinely new objects
    append).

    What qualifies — and why (the safety argument per class):

    * ``system.config`` / ``system.topology`` — frozen dataclasses,
      never mutated after construction.
    * workload action lists — built once by ``generate_actions``;
      drivers move a cursor over them, never mutate the list.
    * trace segments — each call seals the recorder's tail into a new
      segment (:meth:`~repro.sim.trace.TraceRecorder.freeze`), a tuple
      of records written once and only read afterwards.  The tail list
      a run appends to stays private.
    * checkpoints — frozen; stores replace/trim entries but never
      mutate a stored checkpoint.  Sharing the checkpoint shares its
      whole payload graph (the dominant bytes), and — every copy now
      reaching this one object — lets it remember the auditor view it
      decodes to (:meth:`~repro.checkpoint.Checkpoint.remember_view`).
    * encoder chain tips — ``SectionPayload`` is frozen; suffix
      captures extend the chain with private payloads whose ``base``
      points at these shared ones.
    * the network's ``BatchedUniform`` prefetch block — refills replace
      ``_buf`` wholesale (never in place), so the block at fork time is
      final; each fork consumes it through a private index.
    * RNG stream *states* (not the streams) — see
      :meth:`ForkContext.share_rng`.  The registry holds only streams
      a run draws from: the clocks', the network's, an imperfect AT's.
    """
    context.share(system.config)
    topology = getattr(system, "topology", None)
    if topology is not None:
        context.share(topology)
    for process in system.process_list():
        actions = getattr(process.driver, "_actions", None)
        if actions is not None:
            context.share(actions)
    context.share_all(system.trace.freeze())
    for node in system.nodes.values():
        for chain in (node.volatile._latest.values(),
                      *node.stable._chain.values()):
            for checkpoint in chain:
                context.share(checkpoint)
                checkpoint.remember_view()
    for process in system.process_list():
        encoder = process.snapshot_encoder
        for tip in encoder._tips.values():
            node = tip
            while node is not None:
                context.share(node)
                node = node.base
        # Delta baselines are snapshots built at capture time and only
        # ever *replaced*; the mapping dicts stay private (reset clears
        # them in place).  A journal baseline holds the journal's own
        # record objects and is compared by identity: while every one
        # of them is validated it reaches only the frozen records
        # shared below, but one that still holds an unvalidated record
        # stays private, so each fork diffs against *its* copy of it.
        context.share_all(baseline
                          for baseline in encoder._journal_baselines.values()
                          if not baseline.unvalidated)
        context.share_all(encoder._log_baselines.values())
        # Validated journal records are frozen: ``validated`` is the
        # only field ever written after construction, and it is
        # one-way (a validated record's validity "can never change
        # again" — repro.journal).  Unvalidated records stay private.
        for journal in (process.journal_sent, process.journal_recv):
            for record in journal._records.values():
                if record.validated:
                    context.share(record)
    delay = getattr(system.network, "_delay", None)
    if delay is not None and getattr(delay, "_buf", None):
        context.share(delay._buf)
    context.share_all(system.network.device_log)
    registry = getattr(system, "rng", None)
    if registry is not None:
        for stream in registry._streams.values():
            context.share_rng(stream)


@dataclasses.dataclass
class SystemImage:
    """One frozen instant of a running system.

    ``dump`` is decodable only against ``context``, the table it was
    frozen through.  Which prefix the image belongs to is its set's
    :class:`~repro.warmstart.store.PrefixKey`; resuming is only valid
    for schedules of that prefix whose first divergence from the
    fault-free reference lies strictly after ``captured_at``.
    """

    captured_at: float
    dump: bytes
    context: ForkContext


def capture(system, auditor=None,
            context: Optional[ForkContext] = None) -> SystemImage:
    """Freeze ``system`` (and its attached ``auditor``) into an image.

    Must be called between events — i.e. after ``system.run(until=t)``
    returns, never from inside a callback.  Given the ``context`` of a
    reference that is captured again and again (an image set under
    construction, a fork template), the caller has registered the
    system's fork-safe objects where it stands now
    (:func:`collect_shared`); without one the image gets a table of
    its own.  One pickle pass covers system and auditor, so what they
    share (trace recorder, process list) stays shared on resume.
    """
    if context is None:
        context = ForkContext()
        collect_shared(context, system, auditor)
    return SystemImage(captured_at=system.sim.now, context=context,
                       dump=context.dumps((system, auditor)))


def resume(image: SystemImage, fail_fast: bool = False):
    """Thaw an independent ``(system, auditor)`` copy from ``image``.

    The copy carries its own message-id allocator and RNG streams at
    their frozen positions, so resuming touches no process-global state
    and any number of copies coexist.  ``fail_fast`` configures the
    thawed auditor (``None`` when the image was captured without one);
    the captured reference's own always runs with it off, so advancing
    the reference can never abort.
    """
    system, auditor = image.context.loads(image.dump)
    if auditor is not None:
        auditor.fail_fast = fail_fast
    return system, auditor
