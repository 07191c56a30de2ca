"""Worker supervision for sharded campaign execution.

The executor layer (:mod:`repro.parallel.pool`) hands this supervisor a
list of shard payloads and a picklable worker function; the supervisor
owns every failure mode between "submit" and "all results collected":

* **per-shard timeout** — a hung worker is abandoned (the pool is torn
  down; futures cannot kill a single process) and the shard retried;
* **bounded retry with exponential backoff** — crashes
  (``BrokenProcessPool``), timeouts and raised exceptions requeue the
  shard up to ``max_retries`` extra attempts;
* **graceful degradation** — a shard that keeps failing in workers, or
  a platform with no usable ``fork``/``spawn`` start method, runs
  in-process serially instead, so the campaign always completes (a
  deterministic error then surfaces with its real traceback).

The sleep function is injectable so retry/backoff logic is testable
without wall-clock delays.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .progress import ProgressReporter


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout policy for one campaign."""

    shard_timeout: Optional[float] = 600.0
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    #: Full jitter: each retry sleeps ``uniform(0, ceiling)`` instead of
    #: the ceiling itself, so the shards of one failed round don't
    #: resubmit in lockstep against whatever resource killed them.
    jitter: bool = True
    start_method: Optional[str] = None

    def backoff(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Sleep before retry ``attempt`` (1-based).

        The exponential ceiling is ``base * factor**(attempt-1)``; with
        ``jitter`` the actual sleep is drawn uniformly from
        ``[0, ceiling)`` (full jitter — the variant that minimizes
        total contention for a fixed expected delay).  ``rng=None``
        uses module-level :mod:`random`; tests pass a seeded
        :class:`random.Random` for reproducible draws.
        """
        ceiling = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        if not self.jitter:
            return ceiling
        draw = (rng or random).uniform(0.0, ceiling)
        return draw


def multiprocessing_supported(start_method: Optional[str] = None) -> bool:
    """Whether this platform can actually start worker processes."""
    try:
        methods = multiprocessing.get_all_start_methods()
        if not methods:
            return False
        if start_method is not None and start_method not in methods:
            return False
        return True
    except (ImportError, OSError, ValueError):
        return False


def _pick_start_method(config: SupervisorConfig) -> Optional[str]:
    if config.start_method is not None:
        return config.start_method
    # fork avoids re-importing the package per worker, which matters for
    # the short shards the quick benches run; fall back to the default.
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return None


class ShardSupervisor:
    """Runs shards in a process pool and survives its failures."""

    def __init__(self, config: SupervisorConfig = SupervisorConfig(), *,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None,
                 progress: Optional[ProgressReporter] = None) -> None:
        self.config = config
        self._sleep = sleep
        self._rng = rng
        self.progress = progress
        self.events: List[str] = []

    def _note(self, event: str) -> None:
        self.events.append(event)

    def _retry_note(self, index: int, attempt: int, reason: str) -> None:
        self._note(f"retry shard {index} (attempt {attempt}): {reason}")
        if self.progress is not None:
            self.progress.shard_retried(index, attempt, reason)

    def _degrade_note(self, reason: str) -> None:
        self._note(f"degraded: {reason}")
        if self.progress is not None:
            self.progress.degraded(reason)

    def run(self, worker_fn: Callable[[Any], Any], shards: Sequence[Any],
            workers: int,
            on_shard_done: Optional[Callable[[int, Any], None]] = None
            ) -> List[Any]:
        """Evaluate ``worker_fn(shard)`` for every shard; results are
        returned aligned with ``shards``.

        ``on_shard_done(index, result)`` fires as each shard lands
        (from cache-of-failure retries too, exactly once per shard).
        """
        results: List[Any] = [None] * len(shards)

        def land(index: int, value: Any) -> None:
            results[index] = value
            if on_shard_done is not None:
                on_shard_done(index, value)

        if workers <= 1 or len(shards) <= 1 \
                or not multiprocessing_supported(self.config.start_method):
            if workers > 1 and len(shards) > 1:
                self._degrade_note("platform lacks multiprocessing support")
            for index, shard in enumerate(shards):
                land(index, worker_fn(shard))
            return results

        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(shards))]
        method = _pick_start_method(self.config)
        context = (multiprocessing.get_context(method)
                   if method is not None else None)

        while pending:
            exhausted = [(i, a) for i, a in pending
                         if a > self.config.max_retries]
            pending = [(i, a) for i, a in pending
                       if a <= self.config.max_retries]
            for index, _ in exhausted:
                self._degrade_note(
                    f"shard {index} exceeded {self.config.max_retries} "
                    "retries; running in-process")
                land(index, worker_fn(shards[index]))
            if not pending:
                break

            max_attempt = max(a for _, a in pending)
            if max_attempt > 0:
                self._sleep(self.config.backoff(max_attempt, self._rng))

            requeue: List[Tuple[int, int]] = []
            try:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    mp_context=context)
            except (OSError, ValueError) as exc:
                self._degrade_note(f"cannot start worker pool ({exc!r}); "
                                   "running in-process")
                for index, _ in pending:
                    land(index, worker_fn(shards[index]))
                return results

            futures: Dict[concurrent.futures.Future, Tuple[int, int]] = {}
            abandoned = False
            try:
                try:
                    for index, attempt in pending:
                        futures[executor.submit(worker_fn, shards[index])] = \
                            (index, attempt)
                except concurrent.futures.process.BrokenProcessPool:
                    # A worker died while shards were still being
                    # submitted and the pool takes no more.  The death
                    # surfaces (and is charged) on a submitted future
                    # below; the rest wait for the next round.
                    submitted = set(futures.values())
                    requeue.extend(p for p in pending if p not in submitted)
                for future in list(futures):
                    index, attempt = futures[future]
                    if abandoned:
                        # A hung shard poisoned this pool; anything not
                        # already finished goes to the next round.
                        if future.done() and not future.cancelled() \
                                and future.exception() is None:
                            land(index, future.result())
                        else:
                            requeue.append((index, attempt))
                        continue
                    try:
                        land(index,
                             future.result(timeout=self.config.shard_timeout))
                    except concurrent.futures.TimeoutError:
                        self._retry_note(index, attempt + 1,
                                         f"timeout after "
                                         f"{self.config.shard_timeout}s")
                        requeue.append((index, attempt + 1))
                        abandoned = True
                    except concurrent.futures.process.BrokenProcessPool:
                        self._retry_note(index, attempt + 1,
                                         "worker process died")
                        requeue.append((index, attempt + 1))
                        abandoned = True
                    except concurrent.futures.CancelledError:
                        requeue.append((index, attempt))
                    except Exception as exc:  # raised inside the worker
                        self._retry_note(index, attempt + 1,
                                         f"worker raised {type(exc).__name__}")
                        requeue.append((index, attempt + 1))
            finally:
                executor.shutdown(wait=not abandoned, cancel_futures=True)
            pending = requeue

        return results

    def run_serial(self, worker_fn: Callable[[Any], Any],
                   shards: Sequence[Any],
                   on_shard_done: Optional[Callable[[int, Any], None]] = None
                   ) -> List[Any]:
        """The in-process path, exposed for callers that degrade early
        (e.g. an unpicklable task)."""
        return self.run(worker_fn, shards, workers=1,
                        on_shard_done=on_shard_done)
