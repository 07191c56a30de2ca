"""The fabric supervisor: plan, dispatch, steal, survive.

One supervisor drives one campaign over any number of per-host worker
agents (:mod:`repro.fabric.worker`).  The dialogue is pull-based
work-stealing: workers *request* shards, so a fast host naturally
drains more of the queue, and an idle worker with nothing pending
steals the oldest outstanding lease — shard execution is a pure
function of ``(config, schedules)``, so duplicated executions return
identical results and the first one to land wins.

Failure policy (the :class:`~repro.parallel.supervisor.ShardSupervisor`
requeue semantics, lifted to real hosts):

* **liveness** — a worker is declared dead on connection loss or a
  missed heartbeat deadline; its leases requeue with the attempt count
  bumped;
* **bounded retry** — a shard that keeps dying requeues up to
  ``max_retries`` times, then degrades: the supervisor executes it
  in-process, so a campaign always completes;
* **exclusion** — a worker that kills shards repeatedly
  (``max_worker_strikes``) is excluded from the campaign: its current
  connection is dropped and later hellos under the same name refused.

Durability: every completed shard is appended to the
:class:`~repro.fabric.journal.DispatchJournal` before it counts, so a
``kill -9`` of the supervisor loses at most in-flight work — a
restarted supervisor over the same journal re-dispatches only the
shards without a ``done`` record and reassembles the identical report.

Transfer economics: warm/flock campaigns build each prefix's image set
once, straight into the content-addressed :class:`~repro.cas.BlobStore`
(the campaign pipeline's prepare step,
:func:`~repro.warmstart.engine.ensure_planned_sets`), and announce
``(prefix digest, blob digest)`` pairs in every task; workers fetch
each blob at most once per host, ever — re-campaigns find the set by
its prefix ref and re-announce the same content address, so the
re-transfer count is zero.
"""

from __future__ import annotations

import collections
import dataclasses
import selectors
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..audit.campaign import execute_shard
from ..cas import BlobStore
from ..runtime.wire import FrameReader, WireIntegrityError, encode_frame
from ..warmstart.engine import ensure_planned_sets
from ..warmstart.store import ImageStore
from .journal import DispatchJournal, campaign_key
from .plan import (DEFAULT_SHARD_SIZE, Shard, assemble, plan_prefixes,
                   plan_shards)
from .protocol import FABRIC_VERSION, FabricProtocolError, blob_frames, frame

#: Execution modes a campaign may dispatch under.
MODES = ("cold", "warm", "flock")


@dataclasses.dataclass(frozen=True)
class FabricConfig:
    """Fabric-layer policy for one campaign (not part of the campaign's
    identity — results are mode- and policy-invariant)."""

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 2.0
    #: Requeues a shard may survive before the supervisor runs it
    #: in-process (the degradation path).
    max_retries: int = 3
    #: Shard deaths a worker may cause before exclusion.
    max_worker_strikes: int = 2
    shard_size: int = DEFAULT_SHARD_SIZE
    #: Seconds an idle worker waits before re-requesting work.
    idle_delay: float = 0.2
    #: Per-send socket timeout; a worker that cannot drain a task or
    #: blob within this is treated as dead.
    send_timeout: float = 30.0
    fsync_journal: bool = False


class _Conn:
    """One connected worker (pre- or post-hello)."""

    def __init__(self, sock: socket.socket, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.reader = FrameReader()
        self.worker: Optional[str] = None
        self.last_heard = time.monotonic()


class FabricSupervisor:
    """Plan and run one campaign over the worker fleet."""

    def __init__(self, config, schedules, *, mode: str = "cold",
                 cas_root: str,
                 journal_path: Optional[str] = None,
                 fabric: FabricConfig = FabricConfig(),
                 timeline=None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown fabric mode {mode!r}")
        self.config = config
        self.schedules = list(schedules)
        self.mode = mode
        self.cas = BlobStore(cas_root)
        self.fabric = fabric
        self.timeline = timeline
        self._emit = log or (lambda _msg: None)

        self.plan: List[Shard] = []
        #: ``prefix digest -> blob digest`` for exported image sets.
        self.blob_map: Dict[str, str] = {}
        self.journal: Optional[DispatchJournal] = None
        self._journal_path = journal_path
        self.key: Optional[str] = None

        # Dispatch state.
        self._pending: "collections.deque[int]" = collections.deque()
        self._attempts: Dict[int, int] = {}
        #: shard id -> workers currently executing it (steals included).
        self._leases: Dict[int, List[str]] = {}
        self._lease_since: Dict[Tuple[int, str], float] = {}
        self._done: Dict[int, List[Dict[str, Any]]] = {}
        self._conns: Dict[socket.socket, _Conn] = {}
        self._by_worker: Dict[str, _Conn] = {}
        self._excluded: Set[str] = set()
        self._strikes: Dict[str, int] = {}
        self._worker_stats: Dict[str, Dict[str, Any]] = {}

        # Counters for the report.
        self.steals = 0
        self.requeues = 0
        self.local_runs = 0
        self.blob_serves: Dict[str, int] = {}
        self._export = {"sets_exported": 0, "export_seconds": 0.0}
        self._listen: Optional[socket.socket] = None
        self.port: Optional[int] = None
        self._wall_start: Optional[float] = None

    # ------------------------------------------------------------------
    # preparation: plan, export, journal, bind
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Plan shards, export image sets, open the journal, bind."""
        self.plan = plan_shards(self.config, self.schedules,
                                shard_size=self.fabric.shard_size)
        self.key = campaign_key(self.config, self.schedules, self.mode)
        if self.mode in ("warm", "flock"):
            self._export_image_sets()
        if self._journal_path is not None:
            self.journal = DispatchJournal(self._journal_path,
                                           fsync=self.fabric.fsync_journal)
            self.journal.open(self.key)
            for shard_id, results in self.journal.recovered.items():
                if 0 <= shard_id < len(self.plan):
                    self._done[shard_id] = results
            if self.journal.resumed:
                self._emit(f"fabric: resumed journal with "
                           f"{len(self._done)}/{len(self.plan)} shards done")
        self._pending.extend(shard.shard_id for shard in self.plan
                             if shard.shard_id not in self._done)
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((self.fabric.host, self.fabric.port))
        self._listen.listen(16)
        self.port = self._listen.getsockname()[1]
        self._emit(f"fabric: supervising {len(self.plan)} shards "
                   f"({len(self.schedules)} schedules, mode={self.mode}) "
                   f"on {self.fabric.host}:{self.port}")

    def _export_image_sets(self) -> None:
        """Build (or reuse) each shared prefix's image set in the CAS
        and note which blob workers must hold for it."""
        prefixes = plan_prefixes(self.plan)
        if not prefixes:
            return
        images = ImageStore(self.cas)
        self._export = ensure_planned_sets(
            self.config, images, self.schedules, self.plan, self.timeline)
        self.blob_map = {prefix: images.blob_of(prefix)
                         for prefix in prefixes}
        built = self._export["sets_exported"]
        self._emit(f"fabric: {len(prefixes)} image sets published "
                   f"({built} built, {len(prefixes) - built} reused, "
                   f"{self._export['export_seconds']:.2f}s)")

    # ------------------------------------------------------------------
    # the serve loop
    # ------------------------------------------------------------------
    def serve(self) -> List[Dict[str, Any]]:
        """Run the campaign to completion; results in schedule order."""
        assert self._listen is not None, "call prepare() first"
        self._wall_start = time.monotonic()
        selector = selectors.DefaultSelector()
        selector.register(self._listen, selectors.EVENT_READ, "accept")
        try:
            while len(self._done) < len(self.plan):
                timeout = self.fabric.heartbeat_interval / 2.0
                for key, _mask in selector.select(timeout):
                    if key.data == "accept":
                        self._accept(selector)
                    else:
                        self._readable(selector, key.fileobj)
                self._check_liveness(selector)
                self._degrade_exhausted()
            self._broadcast_done(selector)
        finally:
            for sock in list(self._conns):
                self._drop(selector, sock)
            selector.unregister(self._listen)
            self._listen.close()
            selector.close()
            if self.journal is not None:
                self.journal.close()
        return assemble(self.plan,
                        [self._done[shard.shard_id] for shard in self.plan],
                        len(self.schedules))

    # -- connection plumbing -------------------------------------------
    def _accept(self, selector) -> None:
        try:
            sock, addr = self._listen.accept()
        except OSError:
            return
        sock.settimeout(self.fabric.send_timeout)
        conn = _Conn(sock, addr)
        self._conns[sock] = conn
        selector.register(sock, selectors.EVENT_READ, "conn")

    def _drop(self, selector, sock: socket.socket,
              worker_died: bool = True) -> None:
        conn = self._conns.pop(sock, None)
        try:
            selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass
        if conn is None:
            return
        if conn.worker is not None:
            self._by_worker.pop(conn.worker, None)
            if worker_died:
                self._worker_failed(conn.worker, "connection lost")

    def _readable(self, selector, sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None:
            return
        try:
            chunk = sock.recv(65536)
        except (OSError, socket.timeout):
            self._drop(selector, sock)
            return
        if not chunk:
            self._drop(selector, sock)
            return
        conn.last_heard = time.monotonic()
        try:
            bodies = conn.reader.feed(chunk)
        except WireIntegrityError as exc:
            self._emit(f"fabric: dropping {conn.addr}: {exc}")
            self._drop(selector, sock)
            return
        for body in bodies:
            try:
                self._handle(selector, conn, body)
            except (FabricProtocolError, KeyError, TypeError,
                    ValueError) as exc:
                self._send(conn, frame("error", reason=str(exc)))
                self._drop(selector, sock)
                return

    def _send(self, conn: _Conn, body: Dict[str, Any]) -> bool:
        try:
            conn.sock.sendall(encode_frame(body))
            return True
        except (OSError, socket.timeout):
            return False

    # -- frame handlers ------------------------------------------------
    def _handle(self, selector, conn: _Conn, body: Any) -> None:
        if not isinstance(body, dict):
            raise FabricProtocolError(f"not a fabric frame: {body!r}")
        kind = body.get("type")
        if kind == "hello":
            self._on_hello(selector, conn, body)
        elif kind == "request":
            self._on_request(conn)
        elif kind == "heartbeat":
            pass  # last_heard already updated
        elif kind == "result":
            self._on_result(conn, body)
        elif kind == "shard-failed":
            self._on_shard_failed(conn, body)
        elif kind == "blob-get":
            self._on_blob_get(conn, body)
        else:
            raise FabricProtocolError(f"unexpected frame {kind!r}")

    def _on_hello(self, selector, conn: _Conn, body: Dict[str, Any]) -> None:
        worker = str(body.get("worker", ""))
        if not worker:
            raise FabricProtocolError("hello without a worker name")
        if body.get("version") != FABRIC_VERSION:
            raise FabricProtocolError(
                f"fabric version mismatch: {body.get('version')!r}")
        if worker in self._excluded:
            self._send(conn, frame("error", reason="worker excluded"))
            self._drop(selector, conn.sock, worker_died=False)
            return
        stale = self._by_worker.get(worker)
        if stale is not None and stale is not conn:
            # A reconnect (e.g. after a supervisor-side stall verdict):
            # the old socket is dead weight, and any lease it carried
            # must requeue — the worker's new life won't finish it.
            self._drop(selector, stale.sock, worker_died=False)
        for shard_id in [s for s, holders in self._leases.items()
                         if worker in holders]:
            self._release_lease(shard_id, worker, requeue=True)
        conn.worker = worker
        self._by_worker[worker] = conn
        self._send(conn, frame(
            "welcome", campaign=self.key, mode=self.mode,
            config=self.config.to_dict(),
            heartbeat_interval=self.fabric.heartbeat_interval,
            idle_delay=self.fabric.idle_delay,
            shards=len(self.plan)))
        self._emit(f"fabric: worker {worker} joined from {conn.addr}")

    def _on_request(self, conn: _Conn) -> None:
        worker = self._require_worker(conn)
        shard_id = self._next_shard(worker)
        if shard_id is None:
            if len(self._done) >= len(self.plan):
                self._send(conn, frame("done"))
            else:
                self._send(conn, frame("idle"))
            return
        shard = self.plan[shard_id]
        self._leases.setdefault(shard_id, []).append(worker)
        self._lease_since[(shard_id, worker)] = time.monotonic()
        blobs = {}
        if shard.prefix is not None and shard.prefix in self.blob_map:
            blobs[shard.prefix] = self.blob_map[shard.prefix]
        ok = self._send(conn, frame(
            "task", shard=shard_id,
            indices=list(shard.indices),
            schedules=[self.schedules[i].to_dict() for i in shard.indices],
            blobs=blobs,
            attempt=self._attempts.get(shard_id, 0)))
        if not ok:
            self._release_lease(shard_id, worker, requeue=True)

    def _next_shard(self, worker: str) -> Optional[int]:
        while self._pending:
            shard_id = self._pending.popleft()
            if shard_id not in self._done:
                return shard_id
        # Nothing pending: steal the longest-outstanding lease this
        # worker is not already executing (pure-function shards make
        # speculative duplicates free — first result wins).
        candidates = [
            (since, shard_id)
            for (shard_id, holder), since in self._lease_since.items()
            if holder != worker and shard_id not in self._done
            and worker not in self._leases.get(shard_id, ())]
        if not candidates:
            return None
        _since, shard_id = min(candidates)
        self.steals += 1
        if self.journal is not None:
            self.journal.note("steal", shard=shard_id, worker=worker)
        return shard_id

    def _on_result(self, conn: _Conn, body: Dict[str, Any]) -> None:
        worker = self._require_worker(conn)
        shard_id = int(body["shard"])
        if isinstance(body.get("stats"), dict):
            self._worker_stats[worker] = body["stats"]
        self._release_lease(shard_id, worker, requeue=False)
        if shard_id in self._done:
            return  # a steal landed first; identical by construction
        results = body["results"]
        shard = self.plan[shard_id]
        if (not isinstance(results, list)
                or len(results) != len(shard.indices)):
            raise FabricProtocolError(
                f"shard {shard_id}: {len(results) if isinstance(results, list) else '?'} "
                f"results for {len(shard.indices)} schedules")
        self._complete(shard_id, worker, results)

    def _on_shard_failed(self, conn: _Conn, body: Dict[str, Any]) -> None:
        worker = self._require_worker(conn)
        shard_id = int(body["shard"])
        self._release_lease(shard_id, worker, requeue=False)
        if shard_id not in self._done:
            self._requeue(shard_id, f"worker {worker} reported: "
                                    f"{body.get('error', 'unknown')}")
        self._strike(worker, f"shard {shard_id} failed")

    def _on_blob_get(self, conn: _Conn, body: Dict[str, Any]) -> None:
        worker = self._require_worker(conn)
        digest = str(body["digest"])
        data = self.cas.get(digest)
        if data is None:
            raise FabricProtocolError(f"unknown blob {digest}")
        self.blob_serves[worker] = self.blob_serves.get(worker, 0) + 1
        for piece in blob_frames(digest, data):
            if not self._send(conn, piece):
                return

    @staticmethod
    def _require_worker(conn: _Conn) -> str:
        if conn.worker is None:
            raise FabricProtocolError("frame before hello")
        return conn.worker

    # -- failure policy ------------------------------------------------
    def _release_lease(self, shard_id: int, worker: str,
                       requeue: bool) -> None:
        holders = self._leases.get(shard_id)
        if holders and worker in holders:
            holders.remove(worker)
            if not holders:
                del self._leases[shard_id]
        self._lease_since.pop((shard_id, worker), None)
        if requeue and shard_id not in self._done \
                and not self._leases.get(shard_id):
            self._requeue(shard_id, f"lease released by {worker}")

    def _requeue(self, shard_id: int, reason: str) -> None:
        self._attempts[shard_id] = self._attempts.get(shard_id, 0) + 1
        self.requeues += 1
        if shard_id not in self._pending:
            self._pending.append(shard_id)
        self._emit(f"fabric: requeue shard {shard_id} "
                   f"(attempt {self._attempts[shard_id]}): {reason}")
        if self.journal is not None:
            self.journal.note("requeue", shard=shard_id, reason=reason,
                              attempt=self._attempts[shard_id])

    def _worker_failed(self, worker: str, reason: str) -> None:
        leased = [shard_id for shard_id, holders in self._leases.items()
                  if worker in holders]
        for shard_id in leased:
            self._release_lease(shard_id, worker, requeue=True)
        if leased:
            self._strike(worker, reason)

    def _strike(self, worker: str, reason: str) -> None:
        self._strikes[worker] = self._strikes.get(worker, 0) + 1
        if self._strikes[worker] >= self.fabric.max_worker_strikes \
                and worker not in self._excluded:
            self._excluded.add(worker)
            self._emit(f"fabric: excluding worker {worker} "
                       f"after {self._strikes[worker]} strikes ({reason})")
            if self.journal is not None:
                self.journal.worker_excluded(worker, reason)
            conn = self._by_worker.get(worker)
            if conn is not None:
                self._send(conn, frame("error", reason="excluded"))

    def _check_liveness(self, selector) -> None:
        deadline = time.monotonic() - self.fabric.heartbeat_timeout
        for sock, conn in list(self._conns.items()):
            if conn.worker is not None and conn.last_heard < deadline:
                self._emit(f"fabric: worker {conn.worker} missed its "
                           "heartbeat deadline")
                self._drop(selector, sock)

    def _degrade_exhausted(self) -> None:
        """Shards past the retry budget run in-process — the campaign
        always completes (the ShardSupervisor degradation rule)."""
        for shard_id in list(self._pending):
            if self._attempts.get(shard_id, 0) <= self.fabric.max_retries:
                continue
            try:
                self._pending.remove(shard_id)
            except ValueError:
                continue
            if shard_id in self._done:
                continue
            self._emit(f"fabric: shard {shard_id} exhausted "
                       f"{self.fabric.max_retries} retries; "
                       "running in-process")
            shard = self.plan[shard_id]
            results = self._run_local(shard)
            self.local_runs += 1
            self._complete(shard_id, "supervisor", results)

    def _run_local(self, shard: Shard) -> List[Dict[str, Any]]:
        return execute_shard(
            self.config.to_dict(),
            [self.schedules[i].to_dict() for i in shard.indices],
            mode=self.mode,
            images_root=str(self.cas.root) if self.mode != "cold" else None)

    def _complete(self, shard_id: int, worker: str,
                  results: List[Dict[str, Any]]) -> None:
        self._done[shard_id] = results
        if self.journal is not None:
            self.journal.shard_done(shard_id, worker, results)
        if len(self._done) % 8 == 0 or len(self._done) == len(self.plan):
            self._emit(f"fabric: {len(self._done)}/{len(self.plan)} "
                       "shards done")

    def _broadcast_done(self, selector) -> None:
        for sock, conn in list(self._conns.items()):
            if conn.worker is not None:
                self._send(conn, frame("done"))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The fabric counters an :class:`AuditReport` carries."""
        wall = (time.monotonic() - self._wall_start
                if self._wall_start is not None else 0.0)
        return {
            "mode": f"fabric-{self.mode}",
            "shards": len(self.plan),
            "schedules": len(self.schedules),
            "workers": sorted(self._worker_stats),
            "worker_stats": dict(self._worker_stats),
            "steals": self.steals,
            "requeues": self.requeues,
            "local_runs": self.local_runs,
            "excluded": sorted(self._excluded),
            "recovered_shards": (len(self.journal.recovered)
                                 if self.journal is not None else 0),
            **self._export,
            "blob_serves": dict(self.blob_serves),
            "cas": self.cas.stats(),
            "serve_seconds": round(wall, 6),
        }
