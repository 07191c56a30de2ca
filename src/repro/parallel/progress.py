"""Progress and telemetry for sharded campaign execution.

The reporter is deliberately dependency-free: one line to stderr per
shard (throughput, ETA) plus a machine-readable :meth:`~ProgressReporter
.snapshot` for tooling.  The clock is injectable so the arithmetic is
testable without real sleeping.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, TextIO


class ProgressReporter:
    """Tracks shard completion, throughput and ETA for one campaign."""

    def __init__(self, label: str = "", *, stream: Optional[TextIO] = None,
                 enabled: bool = True,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.label = label
        self.enabled = enabled
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self.total_shards = 0
        self.shards_done = 0
        self.samples = 0
        self.replications_done = 0
        self.cache_hits = 0
        self.retries = 0
        self.fallbacks = 0
        self.shard_wall_times: List[float] = []
        self.events: List[str] = []
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------

    def start(self, total_shards: int, cached_replications: int = 0) -> None:
        """Begin a campaign of ``total_shards`` live shards."""
        self.total_shards = total_shards
        self.cache_hits = cached_replications
        self._started_at = self._clock()
        if cached_replications:
            self._emit(f"{cached_replications} replication(s) served "
                       "from cache")

    def shard_done(self, shard_index: int, replications: int,
                   samples: int, wall_time: float) -> None:
        """Record one completed shard and print a progress line."""
        self.shards_done += 1
        self.replications_done += replications
        self.samples += samples
        self.shard_wall_times.append(wall_time)
        snap = self.snapshot()
        eta = snap["eta_seconds"]
        eta_text = f"{eta:6.1f}s" if eta is not None else "    ? "
        self._emit(
            f"shard {shard_index:>3} done in {wall_time:6.2f}s  "
            f"[{self.shards_done}/{self.total_shards}]  "
            f"{snap['samples_per_sec']:8.1f} samples/s  eta {eta_text}")

    def shard_retried(self, shard_index: int, attempt: int,
                      reason: str) -> None:
        """Record a supervised retry."""
        self.retries += 1
        self.events.append(f"retry shard {shard_index} "
                           f"(attempt {attempt}): {reason}")
        self._emit(f"shard {shard_index} attempt {attempt} failed "
                   f"({reason}); retrying")

    def degraded(self, reason: str) -> None:
        """Record a fallback to in-process serial execution."""
        self.fallbacks += 1
        self.events.append(f"degraded to serial: {reason}")
        self._emit(f"falling back to in-process execution: {reason}")

    def finish(self) -> None:
        """Close the campaign and print the summary line."""
        self._finished_at = self._clock()
        snap = self.snapshot()
        self._emit(
            f"campaign done: {self.replications_done} replication(s), "
            f"{self.samples} samples in {snap['elapsed_seconds']:.2f}s "
            f"({snap['samples_per_sec']:.1f} samples/s; "
            f"{self.cache_hits} from cache)")

    # -- reporting ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable telemetry at this instant."""
        now = (self._finished_at if self._finished_at is not None
               else self._clock())
        started = self._started_at if self._started_at is not None else now
        elapsed = max(now - started, 0.0)
        rate = self.samples / elapsed if elapsed > 0 else 0.0
        remaining = self.total_shards - self.shards_done
        eta: Optional[float] = None
        if self.shards_done and remaining > 0:
            eta = elapsed / self.shards_done * remaining
        elif remaining == 0:
            eta = 0.0
        return {
            "label": self.label,
            "shards_done": self.shards_done,
            "total_shards": self.total_shards,
            "replications_done": self.replications_done,
            "samples": self.samples,
            "elapsed_seconds": elapsed,
            "samples_per_sec": rate,
            "eta_seconds": eta,
            "per_shard_wall_seconds": list(self.shard_wall_times),
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "events": list(self.events),
        }

    def _emit(self, line: str) -> None:
        if not self.enabled:
            return
        prefix = f"[{self.label}] " if self.label else ""
        print(f"{prefix}{line}", file=self._stream)
