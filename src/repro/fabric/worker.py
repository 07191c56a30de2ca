"""The per-host worker agent: fetch once, fork locally, report back.

A worker is one process per host.  It connects to the supervisor,
registers, and then pulls shards in a request/execute/report loop.
Execution is the campaign pipeline's one shard function
(:func:`repro.audit.campaign.execute_shard`) — the fabric changes where
schedules run, never what a schedule computes, which is what makes the
bit-for-bit-equal-to-serial acceptance tests hold by construction.

Shards execute on a background thread while the connection thread keeps
sending heartbeats — a shard that takes seconds must not look like a
dead host.  Image sets needed by warm/flock shards resolve through the
local content-addressed :class:`~repro.cas.BlobStore` before the wire:
a digest already cached (from an earlier shard, an earlier campaign, or
a co-located worker sharing the cache dir) is a ``cas_hit``; only a
genuinely new digest costs a ``transfer``.  The shard then thaws
straight from the CAS (:class:`~repro.warmstart.store.ImageStore` is a
view over it) — a fetched set exists once on the host.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..audit.campaign import execute_shard
from ..cas import BlobStore
from ..warmstart.store import ImageStore
from .protocol import (FABRIC_VERSION, FabricProtocolError, FrameChannel,
                       expect, frame)


class _ShardThread(threading.Thread):
    """Run one shard off-thread so heartbeats keep flowing."""

    def __init__(self, fn: Callable[[], List[Dict[str, Any]]]) -> None:
        super().__init__(daemon=True)
        self.results: Optional[List[Dict[str, Any]]] = None
        self.error: Optional[str] = None
        self._fn = fn

    def run(self) -> None:  # pragma: no cover - thread body
        try:
            self.results = self._fn()
        except Exception as exc:  # report upstream; supervisor requeues
            self.error = f"{type(exc).__name__}: {exc}"


class FabricWorker:
    """One host's agent: connect, pull shards, execute, heartbeat."""

    def __init__(self, name: Optional[str] = None, *, cas_root: str,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.cas = BlobStore(cas_root)
        #: The image-set view of ``cas``: which blob holds which prefix.
        self.images = ImageStore(self.cas)
        self._emit = log or (lambda _msg: None)
        # Cumulative across campaigns — the transfer-exactly-once
        # assertions read these after back-to-back campaigns.
        self.transfers = 0
        self.cas_hits = 0
        self.shards = 0
        self.schedules_run = 0
        self.campaigns = 0

    # ------------------------------------------------------------------
    def run(self, host: str, port: int, *,
            retry_delay: float = 0.5,
            connect_timeout: Optional[float] = None,
            once: bool = False) -> Dict[str, Any]:
        """Serve campaigns until ``once`` completes one (or forever).

        Connection loss mid-campaign retries — the supervisor may have
        been restarted over its journal and will hand out only the
        remaining shards.  ``connect_timeout`` bounds how long the
        worker keeps retrying a refused/absent supervisor.
        """
        started = time.monotonic()
        served = False
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=10.0)
            except OSError:
                if once and served:
                    # A dedicated agent whose supervisor is gone: the
                    # campaign ended without us (a duplicate of our
                    # last shard won the steal race).  Nothing left to
                    # serve — exit instead of burning the retry budget.
                    return self.stats()
                if connect_timeout is not None and \
                        time.monotonic() - started > connect_timeout:
                    raise TimeoutError(
                        f"no supervisor at {host}:{port} "
                        f"within {connect_timeout}s")
                time.sleep(retry_delay)
                continue
            served = True
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = FrameChannel(sock)
            try:
                finished = self._serve_campaign(channel)
            except (ConnectionError, OSError, FabricProtocolError) as exc:
                self._emit(f"worker {self.name}: connection lost ({exc}); "
                           "retrying")
                finished = False
            finally:
                channel.close()
            if finished:
                self.campaigns += 1
                started = time.monotonic()
                if once:
                    return self.stats()
            time.sleep(retry_delay)

    # ------------------------------------------------------------------
    def _serve_campaign(self, channel: FrameChannel) -> bool:
        """One connection's dialogue; True if the campaign completed."""
        channel.send(frame("hello", worker=self.name,
                           host=socket.gethostname(), pid=os.getpid(),
                           version=FABRIC_VERSION))
        welcome = channel.recv(timeout=30.0)
        if welcome is None:
            raise FabricProtocolError("no welcome from supervisor")
        body = expect(welcome, "welcome", "error")
        if body["type"] == "error":
            raise FabricProtocolError(
                f"supervisor refused: {body.get('reason')}")
        config = dict(body["config"])
        mode = str(body["mode"])
        heartbeat = float(body.get("heartbeat_interval", 0.25))
        idle_delay = float(body.get("idle_delay", 0.2))
        self._emit(f"worker {self.name}: joined campaign "
                   f"{body.get('campaign')} (mode={mode})")

        channel.send(frame("request"))
        while True:
            incoming = channel.recv(timeout=30.0)
            if incoming is None:
                raise FabricProtocolError("supervisor went quiet")
            task = expect(incoming, "task", "idle", "done", "error")
            kind = task["type"]
            if kind == "done":
                return True
            if kind == "error":
                raise FabricProtocolError(
                    f"supervisor error: {task.get('reason')}")
            if kind == "idle":
                time.sleep(idle_delay)
                channel.send(frame("heartbeat"))
                channel.send(frame("request"))
                continue
            self._run_task(channel, task, config, mode, heartbeat)
            channel.send(frame("request"))

    def _run_task(self, channel: FrameChannel, task: Dict[str, Any],
                  config: Dict[str, Any], mode: str,
                  heartbeat: float) -> None:
        shard_id = int(task["shard"])
        schedule_dicts = list(task["schedules"])
        for prefix, digest in dict(task.get("blobs") or {}).items():
            self._ensure_image_set(channel, str(prefix), str(digest))
        images_root = str(self.cas.root) if mode != "cold" else None
        runner = _ShardThread(lambda: execute_shard(
            config, schedule_dicts, mode=mode, images_root=images_root))
        runner.start()
        while runner.is_alive():
            runner.join(timeout=heartbeat)
            if runner.is_alive():
                channel.send(frame("heartbeat", shard=shard_id))
        if runner.error is not None:
            channel.send(frame("shard-failed", shard=shard_id,
                               error=runner.error))
            return
        self.shards += 1
        self.schedules_run += len(schedule_dicts)
        channel.send(frame("result", shard=shard_id,
                           results=runner.results, stats=self.stats()))

    # ------------------------------------------------------------------
    def _ensure_image_set(self, channel: FrameChannel, prefix: str,
                          digest: str) -> None:
        """Make ``prefix``'s image set be blob ``digest`` in the local
        CAS: a verified local copy is a hit, anything else costs one
        wire transfer (which also replaces a copy gone bad)."""
        if self.cas.get(digest) is not None:
            self.cas_hits += 1
        else:
            channel.send(frame("blob-get", digest=digest))
            header = channel.recv(timeout=60.0)
            if header is None:
                raise FabricProtocolError(f"no blob reply for {digest}")
            data = channel.recv_blob(expect(header, "blob"), timeout=60.0)
            self.cas.put(data)
            self.transfers += 1
            self._emit(f"worker {self.name}: fetched image set "
                       f"{prefix[:12]} ({len(data)} bytes)")
        if self.images.blob_of(prefix) != digest:
            self.images.adopt(prefix, digest)

    def stats(self) -> Dict[str, Any]:
        """Cumulative per-host counters (carried on result frames)."""
        return {"worker": self.name, "transfers": self.transfers,
                "cas_hits": self.cas_hits, "shards": self.shards,
                "schedules": self.schedules_run,
                "campaigns": self.campaigns}
