"""Unit tests for volatile and stable checkpoint stores."""

import pytest

from repro.checkpoint import Checkpoint
from repro.errors import StorageError
from repro.sim.storage import StableStore, VolatileStore
from repro.types import CheckpointKind, ProcessId


def ckpt(pid="P", epoch=None, work=0.0, kind=CheckpointKind.TYPE_1):
    return Checkpoint.capture(ProcessId(pid), kind, state={"w": work},
                              taken_at=work, work_done=work, epoch=epoch)


class TestVolatileStore:
    def test_keeps_only_most_recent(self):
        store = VolatileStore()
        store.save(ckpt(work=1.0))
        latest = ckpt(work=2.0)
        store.save(latest)
        assert store.load(ProcessId("P")) is latest

    def test_load_missing_raises(self):
        with pytest.raises(StorageError):
            VolatileStore().load(ProcessId("P"))

    def test_peek_missing_returns_none(self):
        assert VolatileStore().peek(ProcessId("P")) is None

    def test_per_process_isolation(self):
        store = VolatileStore()
        a, b = ckpt("A"), ckpt("B")
        store.save(a)
        store.save(b)
        assert store.load(ProcessId("A")) is a
        assert store.load(ProcessId("B")) is b

    def test_erase_clears_everything(self):
        store = VolatileStore()
        store.save(ckpt("A"))
        store.save(ckpt("B"))
        store.erase()
        assert store.peek(ProcessId("A")) is None
        assert store.peek(ProcessId("B")) is None

    def test_save_counter(self):
        store = VolatileStore()
        store.save(ckpt())
        store.save(ckpt())
        assert store.saves == 2


class TestStableStore:
    def test_requires_positive_history(self):
        with pytest.raises(StorageError):
            StableStore(history=0)

    def test_latest_returns_newest(self):
        store = StableStore()
        store.save(ckpt(epoch=1))
        newest = ckpt(epoch=2)
        store.save(newest)
        assert store.latest(ProcessId("P")) is newest

    def test_latest_missing_raises(self):
        with pytest.raises(StorageError):
            StableStore().latest(ProcessId("P"))

    def test_history_trims_old_epochs(self):
        store = StableStore(history=2)
        for epoch in (1, 2, 3):
            store.save(ckpt(epoch=epoch))
        assert store.epochs(ProcessId("P")) == [2, 3]

    def test_at_epoch_finds_retained(self):
        store = StableStore(history=3)
        for epoch in (1, 2, 3):
            store.save(ckpt(epoch=epoch))
        found = store.at_epoch(ProcessId("P"), 2)
        assert found is not None and found.epoch == 2

    def test_at_epoch_missing_returns_none(self):
        store = StableStore(history=2)
        store.save(ckpt(epoch=5))
        assert store.at_epoch(ProcessId("P"), 1) is None

    def test_history_listing_oldest_first(self):
        store = StableStore(history=3)
        for epoch in (1, 2):
            store.save(ckpt(epoch=epoch))
        assert [c.epoch for c in store.history(ProcessId("P"))] == [1, 2]

    def test_crash_survival_is_callers_concern(self):
        # Stable storage has no erase: its persistence is structural.
        assert not hasattr(StableStore(), "erase")

    def test_release_drops_checkpoints_but_keeps_accounting(self):
        store = StableStore()
        store.save(ckpt(epoch=1))
        written = store.bytes_written
        store.release()
        assert store.peek(ProcessId("P")) is None
        assert (store.saves, store.bytes_written) == (1, written)

    def test_write_latency_attribute(self):
        assert StableStore(write_latency=0.2).write_latency == 0.2
