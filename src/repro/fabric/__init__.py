"""repro.fabric — multi-host work-stealing campaign fabric.

The fabric scales audit campaigns past one host without changing what
any schedule computes: a :class:`~repro.fabric.supervisor
.FabricSupervisor` plans flock-aware shards and serves them to
per-host :class:`~repro.fabric.worker.FabricWorker` agents over the
:mod:`repro.runtime.wire` framed-TCP contract, with work-stealing
dispatch, heartbeat liveness, bounded-retry requeue, and a
crash-survivable :class:`~repro.fabric.journal.DispatchJournal`.
Warm-start image sets ship through a content-addressed
:class:`~repro.cas.BlobStore`, so each set crosses the wire to a given
host at most once — ever.
"""

from ..cas import BlobStore, blob_digest
from .campaign import run_fabric_campaign, spawn_worker
from .journal import DispatchJournal, JournalMismatch, campaign_key, \
    read_journal
from .plan import DEFAULT_SHARD_SIZE, Shard, plan_prefixes, plan_shards
from .protocol import FABRIC_VERSION, FabricProtocolError
from .supervisor import FabricConfig, FabricSupervisor
from .worker import FabricWorker

__all__ = [
    "BlobStore", "blob_digest",
    "run_fabric_campaign", "spawn_worker",
    "DispatchJournal", "JournalMismatch", "campaign_key", "read_journal",
    "DEFAULT_SHARD_SIZE", "Shard", "plan_prefixes", "plan_shards",
    "FABRIC_VERSION", "FabricProtocolError",
    "FabricConfig", "FabricSupervisor",
    "FabricWorker",
]
