"""Worker supervision for the process-pool map.

:func:`repro.parallel.pool.parallel_map` hands this supervisor a list
of shard payloads and a picklable worker function; the supervisor owns
every failure mode between "submit" and "all results collected":

* **per-shard timeout** — a hung worker is abandoned (the pool is torn
  down; futures cannot kill a single process) and the shard retried;
* **bounded retry with exponential backoff** — crashes
  (``BrokenProcessPool``), timeouts and raised exceptions requeue the
  shard up to :data:`MAX_RETRIES` extra attempts;
* **graceful degradation** — a shard that keeps failing in workers, or
  a platform that cannot start worker processes, runs in-process
  serially instead, so the campaign always completes (a deterministic
  error then surfaces with its real traceback).

The policy is module constants, not configuration: no caller ever set
another value.  The sleep function and the jitter RNG are injectable so
retry/backoff logic is testable without wall-clock delays.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .progress import ProgressReporter

#: Seconds one shard may run in a worker before it is abandoned.
SHARD_TIMEOUT = 600.0
#: Extra attempts a shard gets in workers before it runs in-process.
MAX_RETRIES = 2
#: Ceiling of the sleep before the first retry round; doubles per round.
BACKOFF_BASE = 0.25


def backoff(attempt: int, rng: Optional[random.Random] = None) -> float:
    """Sleep before retry round ``attempt`` (1-based).

    Full jitter: drawn uniformly from ``[0, BACKOFF_BASE * 2**(attempt
    - 1)]`` instead of the ceiling itself, so the shards of one failed
    round don't resubmit in lockstep against whatever resource killed
    them.  ``rng=None`` uses module-level :mod:`random`; tests pass a
    seeded :class:`random.Random` for reproducible draws.
    """
    return (rng or random).uniform(0.0, BACKOFF_BASE * 2.0 ** (attempt - 1))


def multiprocessing_supported() -> bool:
    """Whether this platform can actually start worker processes."""
    try:
        return bool(multiprocessing.get_all_start_methods())
    except (ImportError, OSError, ValueError):
        return False


def _mp_context():
    # fork avoids re-importing the package per worker, which matters for
    # short shards; elsewhere the platform default.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class ShardSupervisor:
    """Runs shards in a process pool and survives its failures."""

    def __init__(self, *, sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None,
                 progress: Optional[ProgressReporter] = None) -> None:
        self._sleep = sleep
        self._rng = rng
        self.progress = progress
        self.events: List[str] = []

    def _retry_note(self, index: int, attempt: int, reason: str) -> None:
        self.events.append(f"retry shard {index} (attempt {attempt}): {reason}")
        if self.progress is not None:
            self.progress.shard_retried(index, attempt, reason)

    def degraded(self, reason: str) -> None:
        """Record that (part of) the run falls back in-process."""
        self.events.append(f"degraded: {reason}")
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
                or not multiprocessing_supported():
            if workers > 1 and len(shards) > 1:
                self.degraded("platform lacks multiprocessing support")
            for index, shard in enumerate(shards):
                land(index, worker_fn(shard))
            return results

        pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(shards))]
        context = _mp_context()

        while pending:
            exhausted = [(i, a) for i, a in pending if a > MAX_RETRIES]
            pending = [(i, a) for i, a in pending if a <= MAX_RETRIES]
            for index, _ in exhausted:
                self.degraded(f"shard {index} exceeded {MAX_RETRIES} "
                              "retries; running in-process")
                land(index, worker_fn(shards[index]))
            if not pending:
                break

            max_attempt = max(a for _, a in pending)
            if max_attempt > 0:
                self._sleep(backoff(max_attempt, self._rng))

            requeue: List[Tuple[int, int]] = []
            try:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    mp_context=context)
            except (OSError, ValueError) as exc:
                self.degraded(f"cannot start worker pool ({exc!r}); "
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
                        land(index, future.result(timeout=SHARD_TIMEOUT))
                    except concurrent.futures.TimeoutError:
                        self._retry_note(index, attempt + 1,
                                         f"timeout after {SHARD_TIMEOUT}s")
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
