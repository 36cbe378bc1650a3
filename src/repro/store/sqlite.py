"""SQLite :class:`StateStore` engine.

One file per deployment, WAL-journaled, with every value
CRC-framed *inside* its BLOB column: SQLite guards page integrity, the
frame guards row integrity end-to-end (a byte flipped between the
serializer and the disk — or by an operator poking the file — fails the
CRC, not the protocol).  Schema is one table per durable concern,
mirroring :data:`repro.store.base.STORE_TABLES`:

=============  =================================================
pu_updates     latest ``PUUpdateMessage`` bytes per (shard, PU)
snapshots      newest epoch snapshot per shard (latest only, so
               the file is bounded by shard count)
directory      the singleton key-directory snapshot
checkpoints    one meta row per journal checkpoint scope
=============  =================================================

Connections allow cross-thread use (the router writes shard rows from
its scatter threads); a single mutex serialises statements, matching
the journal writer's locking discipline.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import StoreError
from repro.store.base import StateStore, seal_blob, unseal_blob

__all__ = ["SqliteStateStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS pu_updates (
    shard_id TEXT NOT NULL,
    pu_id    TEXT NOT NULL,
    frame    BLOB NOT NULL,
    PRIMARY KEY (shard_id, pu_id)
);
CREATE TABLE IF NOT EXISTS snapshots (
    shard_id TEXT PRIMARY KEY,
    epoch    INTEGER NOT NULL,
    frame    BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS directory (
    id    INTEGER PRIMARY KEY CHECK (id = 0),
    frame BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    scope TEXT PRIMARY KEY,
    frame BLOB NOT NULL
);
"""


class SqliteStateStore(StateStore):
    """File-backed engine over the Python stdlib ``sqlite3`` module."""

    engine = "sqlite"

    def __init__(self, path) -> None:
        self._path = os.fspath(path)
        self._mutex = threading.Lock()
        self._closed = False
        try:
            # Autocommit mode: every statement is its own transaction
            # unless grouped by :meth:`transaction`'s explicit BEGIN.
            self._conn = sqlite3.connect(
                self._path, isolation_level=None, check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open sqlite store {self._path!r}: {exc}") from exc

    @property
    def path(self) -> str:
        return self._path

    def _execute(self, sql: str, params: tuple = ()):
        self._require_open(self._closed)
        try:
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise StoreError(f"sqlite store statement failed: {exc}") from exc

    # -- per-PU latest ciphertexts ------------------------------------------------

    def put_pu_update(self, shard_id: str, pu_id: str, message_bytes: bytes) -> None:
        with self._mutex:
            self._execute(
                "INSERT INTO pu_updates (shard_id, pu_id, frame) VALUES (?, ?, ?) "
                "ON CONFLICT (shard_id, pu_id) DO UPDATE SET frame = excluded.frame",
                (shard_id, pu_id, seal_blob(message_bytes)),
            )

    def delete_pu_update(self, shard_id: str, pu_id: str) -> bool:
        with self._mutex:
            cursor = self._execute(
                "DELETE FROM pu_updates WHERE shard_id = ? AND pu_id = ?",
                (shard_id, pu_id),
            )
            return cursor.rowcount > 0

    def pu_updates(
        self, shard_id: str | None = None
    ) -> tuple[tuple[str, str, bytes], ...]:
        with self._mutex:
            if shard_id is None:
                cursor = self._execute(
                    "SELECT shard_id, pu_id, frame FROM pu_updates "
                    "ORDER BY shard_id, pu_id"
                )
            else:
                cursor = self._execute(
                    "SELECT shard_id, pu_id, frame FROM pu_updates "
                    "WHERE shard_id = ? ORDER BY pu_id",
                    (shard_id,),
                )
            return tuple(
                (row[0], row[1], unseal_blob(bytes(row[2]), f"pu_updates[{row[0]}/{row[1]}]"))
                for row in cursor.fetchall()
            )

    # -- per-shard epoch snapshots ------------------------------------------------

    def put_snapshot(self, shard_id: str, epoch: int, blob: bytes) -> bool:
        with self._mutex:
            row = self._execute(
                "SELECT epoch FROM snapshots WHERE shard_id = ?", (shard_id,)
            ).fetchone()
            if row is not None and row[0] > epoch:
                return False
            self._execute(
                "INSERT INTO snapshots (shard_id, epoch, frame) VALUES (?, ?, ?) "
                "ON CONFLICT (shard_id) DO UPDATE SET "
                "epoch = excluded.epoch, frame = excluded.frame",
                (shard_id, epoch, seal_blob(blob)),
            )
            return True

    def latest_snapshot(self, shard_id: str) -> tuple[int, bytes] | None:
        with self._mutex:
            row = self._execute(
                "SELECT epoch, frame FROM snapshots WHERE shard_id = ?", (shard_id,)
            ).fetchone()
            if row is None:
                return None
            return row[0], unseal_blob(bytes(row[1]), f"snapshots[{shard_id}]")

    def snapshot_shards(self) -> tuple[str, ...]:
        with self._mutex:
            cursor = self._execute(
                "SELECT shard_id FROM snapshots ORDER BY shard_id"
            )
            return tuple(row[0] for row in cursor.fetchall())

    # -- key directory ------------------------------------------------------------

    def put_directory(self, blob: bytes) -> None:
        with self._mutex:
            self._execute(
                "INSERT INTO directory (id, frame) VALUES (0, ?) "
                "ON CONFLICT (id) DO UPDATE SET frame = excluded.frame",
                (seal_blob(blob),),
            )

    def get_directory(self) -> bytes | None:
        with self._mutex:
            row = self._execute("SELECT frame FROM directory WHERE id = 0").fetchone()
            if row is None:
                return None
            return unseal_blob(bytes(row[0]), "directory")

    # -- checkpoint metadata ------------------------------------------------------

    def put_checkpoint(self, scope: str, blob: bytes) -> None:
        with self._mutex:
            self._execute(
                "INSERT INTO checkpoints (scope, frame) VALUES (?, ?) "
                "ON CONFLICT (scope) DO UPDATE SET frame = excluded.frame",
                (scope, seal_blob(blob)),
            )

    def get_checkpoint(self, scope: str) -> bytes | None:
        with self._mutex:
            row = self._execute(
                "SELECT frame FROM checkpoints WHERE scope = ?", (scope,)
            ).fetchone()
            if row is None:
                return None
            return unseal_blob(bytes(row[0]), f"checkpoints[{scope}]")

    # -- operational surface ------------------------------------------------------

    def row_counts(self) -> dict[str, int]:
        with self._mutex:
            counts = {}
            for table in ("pu_updates", "snapshots", "directory", "checkpoints"):
                row = self._execute(f"SELECT COUNT(*) FROM {table}").fetchone()
                counts[table] = row[0]
            return counts

    def flush(self) -> None:
        """Durability point: fsync the WAL and fold it into the main file."""
        with self._mutex:
            self._execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
            self._conn.close()

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group writes into one atomic SQLite transaction."""
        with self._mutex:
            self._execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            with self._mutex:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
            raise
        with self._mutex:
            self._execute("COMMIT")
