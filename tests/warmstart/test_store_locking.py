"""Advisory locking on the shared on-disk image store.

Co-located fabric workers (and sibling coordinators) share one store
directory; ``build_lock`` must serialize image-set builds per prefix so
concurrent missers neither duplicate reference runs nor interleave
writes.  The tests use real processes — advisory ``flock`` is a
kernel-level, cross-process contract, so threads would prove nothing.
"""

import multiprocessing
import os
import time

import pytest

from repro.audit import AuditConfig
from repro.audit.generator import generate_schedules
from repro.warmstart import ImageStore, capture_times, ensure_image_set
from repro.warmstart.store import PrefixKey

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork for cheap process fixtures")


def _hold_lock_and_log(root, key, log_path, tag, hold):
    store = ImageStore(root=root)
    with store.build_lock(key):
        with open(log_path, "a") as fh:  # O_APPEND: atomic small writes
            fh.write(f"{tag}-enter {time.monotonic():.6f}\n")
            fh.flush()
        time.sleep(hold)
        with open(log_path, "a") as fh:
            fh.write(f"{tag}-exit {time.monotonic():.6f}\n")
            fh.flush()


def _build_through_ensure(root, barrier, queue):
    config = AuditConfig(scheme="coordinated", seed=11, schedules=4,
                         horizon=200.0)
    schedule = generate_schedules(config)[0]
    store = ImageStore(root=root)
    times = capture_times(config)
    barrier.wait()  # maximize the chance both processes miss together
    queue.put(int(ensure_image_set(config, store, schedule, times)))


class TestBuildLock:
    def test_critical_sections_are_mutually_exclusive(self, tmp_path):
        key = PrefixKey(config_fingerprint="fp", system_seed=1)
        log = tmp_path / "events.log"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hold_lock_and_log,
                        args=(str(tmp_path / "store"), key, str(log),
                              f"p{i}", 0.15))
            for i in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        events = [line.split()[0] for line in
                  log.read_text().strip().splitlines()]
        # Strict alternation: enter/exit pairs never interleave.
        assert len(events) == 4
        assert events[0].endswith("-enter") and events[1].endswith("-exit")
        assert events[0].split("-")[0] == events[1].split("-")[0]
        assert events[2].endswith("-enter") and events[3].endswith("-exit")
        assert events[2].split("-")[0] == events[3].split("-")[0]

    def test_two_concurrent_writers_build_once(self, tmp_path):
        """The regression: two processes racing the same miss must
        produce exactly one reference build (double-checked locking),
        and the surviving set must be loadable."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [ctx.Process(target=_build_through_ensure,
                             args=(str(tmp_path / "store"), barrier, queue))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        built = [queue.get(timeout=10) for _ in range(2)]
        assert sum(built) == 1, \
            f"exactly one process should build, got {built}"

        config = AuditConfig(scheme="coordinated", seed=11, schedules=4,
                             horizon=200.0)
        schedule = generate_schedules(config)[0]
        store = ImageStore(root=str(tmp_path / "store"))
        key = PrefixKey.for_schedule(config, schedule)
        images = store.get(key)
        assert images, "the surviving image set must load cleanly"

    def test_memory_only_store_lock_is_noop(self):
        store = ImageStore(root=None)
        key = PrefixKey(config_fingerprint="fp", system_seed=2)
        with store.build_lock(key):
            pass  # must not raise, must not create files

    def test_lock_released_after_exception(self, tmp_path):
        store = ImageStore(root=str(tmp_path))
        key = PrefixKey(config_fingerprint="fp", system_seed=3)
        with pytest.raises(RuntimeError):
            with store.build_lock(key):
                raise RuntimeError("build failed")
        # Reacquisition must not deadlock.
        start = time.monotonic()
        with store.build_lock(key):
            pass
        assert time.monotonic() - start < 1.0

    def test_put_tmp_files_are_pid_suffixed(self, tmp_path):
        store = ImageStore(root=str(tmp_path))
        key = PrefixKey(config_fingerprint="fp", system_seed=4)
        store.put(key, [])
        assert store.has(key)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []
        # The naming contract two racing pids rely on:
        assert f".tmp{os.getpid()}" not in "".join(
            p.name for p in tmp_path.rglob("*"))
