"""repro.store — durable block/ciphertext state behind ``StateStore``.

The subsystem that makes the SDC restartable: SQLite-backed (pluggable;
in-memory for tests) tables for per-PU latest ciphertexts, per-shard
epoch snapshots, and the key directory, plus journal checkpointing that
bounds PISA-JOURNAL-v1 on disk.  See ``docs/storage.md``.
"""

from repro.store.base import STORE_TABLES, StateStore, seal_blob, unseal_blob
from repro.store.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCOPE,
    Checkpointer,
    CheckpointMeta,
    CheckpointStats,
    RecoveredState,
    recover,
)
from repro.store.coldstart import rebuild_shard, tail_epoch_commits
from repro.store.memory import MemoryStateStore
from repro.store.sqlite import SqliteStateStore

__all__ = [
    "STORE_TABLES",
    "StateStore",
    "seal_blob",
    "unseal_blob",
    "MemoryStateStore",
    "SqliteStateStore",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCOPE",
    "CheckpointMeta",
    "CheckpointStats",
    "Checkpointer",
    "RecoveredState",
    "recover",
    "rebuild_shard",
    "tail_epoch_commits",
]
