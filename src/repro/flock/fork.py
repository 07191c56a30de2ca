"""Memo-seeded fast cloning of ``(system, auditor)`` pairs.

A flock group runs many schedule suffixes off one resident template
(:class:`~repro.flock.template.ForkTemplate`).  Each fork must be a
fully independent copy — same contract as ``resume(capture(system))``
— but the naive route (re-pickle the whole object graph per schedule)
re-encodes hundreds of kilobytes that every fork shares with the
template: the frozen configs, the topology, the workload action
streams, the trace records accumulated so far, every already-written
checkpoint.  :class:`ForkContext` is the table of those *fork-safe*
objects: the fork pickler swaps each of them for a small table
reference, and the unpickler resolves the reference back to the very
same object.

Fork safety rule (the contract a ``share`` call asserts): an object may
be shared only if **nothing reachable exclusively through it is
mutated** by any fork, by the template's further advancement, or by a
later fork's run.  Immutable values (frozen dataclasses whose fields
are themselves safe, strings, bytes) qualify trivially; mutable
containers qualify only when the code base replaces them wholesale
instead of mutating them in place (the
:class:`~repro.sim.rng.BatchedUniform` prefetch block, a workload
driver's action list).  Anything a fork writes to — journals, message
logs, RNG streams, the event heap, the per-system message-id allocator,
live component state — must stay private and travel through the pickle
payload.

The table is **grow-only**: dumps taken while the table held ``n``
entries reference only indices ``< n``, so they stay decodable after
the template advances and registers more objects.  This is what lets a
shrink search fork from *earlier* cached dumps after the template has
moved past them.

Strings are additionally shared *by value*: profiling the dump of a
mid-run system shows short strings (process ids, section names, trace
labels, dict keys) are the single largest class of repeated pickle
work.  Strings are immutable, so value-sharing is always safe.
"""

from __future__ import annotations

import io
import pickle
import random
from typing import Any, Dict, Iterable, List

#: Strings shorter than this inline cheaper than a table reference.
SHARED_STR_MIN = 8


class ForkContext:
    """Grow-only shared-object table backing one template's forks."""

    def __init__(self) -> None:
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
        self._rng_index_by_id: Dict[int, int] = {}
        self._rng_refs: List[random.Random] = []

    def __len__(self) -> int:
        return len(self._objects)

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

        Dumps taken from now on encode the stream as a reference to
        this snapshot; each load materialises a *fresh* ``Random`` from
        it.  Re-registering after the stream has drawn appends a new
        snapshot (grow-only: earlier dumps keep decoding to the state
        they were taken at)."""
        state = rng.getstate()
        idx = self._rng_index_by_id.get(id(rng))
        if idx is not None and self._objects[idx] == state:
            return
        self._rng_index_by_id[id(rng)] = len(self._objects)
        self._rng_refs.append(rng)     # pin the id for the table's life
        self._objects.append(state)

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
        if type(obj) is random.Random:
            idx = self._rng_index_by_id.get(id(obj))
            if idx is not None:
                return ("r", idx)
        return self._index_by_id.get(id(obj))

    def dumps(self, state: Any) -> bytes:
        """Encode ``state`` with shared objects as table references."""
        buffer = io.BytesIO()
        _ForkPickler(buffer, self).dump(state)
        return buffer.getvalue()

    def loads(self, data: bytes) -> Any:
        """Decode a dump; table references resolve to the originals."""
        return _ForkUnpickler(io.BytesIO(data), self).load()


class _ForkPickler(pickle.Pickler):
    def __init__(self, buffer, context: ForkContext) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._context = context

    def persistent_id(self, obj: Any):
        return self._context._persistent_id(obj)


class _ForkUnpickler(pickle.Unpickler):
    def __init__(self, buffer, context: ForkContext) -> None:
        super().__init__(buffer)
        self._objects = context._objects
        # One fresh Random per snapshot *per load*: every reference to
        # a stream inside one dump (the registry entry, a clock's
        # `_rng`, a BatchedUniform's bound `random`) must resolve to
        # the same object, or the fork's draw sequence diverges.
        self._rng_cache: Dict[int, random.Random] = {}

    def persistent_load(self, pid: Any):
        if type(pid) is int:
            return self._objects[pid]
        idx = pid[1]
        rng = self._rng_cache.get(idx)
        if rng is None:
            rng = random.Random()
            rng.setstate(self._objects[idx])
            self._rng_cache[idx] = rng
        return rng


def collect_shared(context: ForkContext, system, auditor=None,
                   trace_seen: int = 0) -> int:
    """Register everything fork-safe reachable from ``system``.

    Called when a template is born and again after every advancement
    (``share`` is idempotent; only genuinely new objects append).
    ``trace_seen`` is how many trace records were already registered;
    returns the new count so callers can pass it back next time.

    What qualifies — and why (the safety argument per class):

    * ``system.config`` / ``system.topology`` — frozen dataclasses,
      never mutated after construction.
    * workload action lists — built once by ``generate_actions``;
      drivers move a cursor over them, never mutate the list.
    * trace records — :class:`~repro.sim.trace.TraceRecord` objects
      are written once and only read afterwards.  (The recorder's
      *list* grows, so the list itself stays private.)
    * checkpoints — frozen; stores replace/trim entries but never
      mutate a stored checkpoint.  Sharing the checkpoint shares its
      whole payload graph (the dominant bytes).
    * encoder chain tips — ``SectionPayload`` is frozen; suffix
      captures extend the chain with private payloads whose ``base``
      points at these shared ones.
    * the network's ``BatchedUniform`` prefetch block — refills replace
      ``_buf`` wholesale (never in place), so the block at fork time is
      final; each fork consumes it through a private index.
    * *settled* transmissions — ``_deliver`` runs exactly once per
      transmission, so once ``delivered``/``dropped`` is set the record
      and its message are frozen (resends go through
      ``clone_for_resend``, never mutating the original message).
      In-flight transmissions stay private: the suffix still flips
      their flags.
    * RNG stream *states* (not the streams) — see
      :meth:`ForkContext.share_rng`.  The registry's streams cover the
      clocks' and the network's draws, the bulk of a mid-run dump.
    """
    context.share(system.config)
    topology = getattr(system, "topology", None)
    if topology is not None:
        context.share(topology)
    for process in system.process_list():
        actions = getattr(process.driver, "_actions", None)
        if actions is not None:
            context.share(actions)
    records = system.trace._records
    context.share_all(records[trace_seen:])
    for node in system.nodes.values():
        context.share_all(node.volatile._latest.values())
        for chain in node.stable._chain.values():
            context.share_all(chain)
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
    for tx in system.network._transmissions:
        if tx.delivered or tx.dropped:
            context.share(tx)
    context.share_all(system.network.device_log)
    registry = getattr(system, "rng", None)
    if registry is not None:
        for stream in registry._streams.values():
            context.share_rng(stream)
    return len(records)
