"""Crash-safe write-ahead epoch journal.

PISA's two-server protocol only yields a valid license when every
SDC↔STP round completes with its transcript intact, and the transcript
is a deterministic function of three streams: the inbound messages, the
randomness draws, and the clock reads.  Inbound messages are replayable
by construction (clients re-send); this module makes the other two
streams durable, so a crashed process *replays to the exact bytes* the
uninterrupted run would have produced.

Format
------
A journal file is::

    b"PISA-JOURNAL-v1\\n"  header
    frame*                 CRC frames (see repro.pisa.storage.frame_payload)

Each frame's payload is one record::

    encode_bytes(kind utf-8) + encode_bytes(body)

Record kinds written by the integrated runtime:

=============  ==========================================================
``draw``       one RNG draw: ``encode_int(bits) + encode_int(value)``
``clock``      one clock read: 8-byte IEEE-754 big-endian float
``pu-update``  inbound PU update message bytes
``phase1``     phase-1 randomness committed for a round (durability
               barrier follows — the draws are on disk before the
               scatter begins)
``phase2``     phase-2 randomness (signature obfuscator, η, the license
               clock) committed for a round, again behind a barrier
``epoch-commit``  a shard committed an epoch
``promote``    a replica-set failover promoted the standby
``epoch-dispatch``  the broker dispatched one batched epoch
``checkpoint`` compaction marker opening a checkpointed journal:
               ``encode_int(checkpoint_id) + encode_int(consumed)``
               (written by :class:`repro.store.checkpoint.Checkpointer`,
               always record 0 of the compacted file)
``note``       free-form harness/operator annotation
=============  ==========================================================

Durability model
----------------
Appends are buffered and fsynced every ``fsync_every`` records (default
256) — the paper-scale hot path must not pay a disk flush per
ciphertext — but the
protocol integration calls :meth:`JournalWriter.barrier` at the two
points that matter (after each phase's randomness is drawn, before the
first message derived from it can leave the process).  A crash between
barriers loses only records the outside world has seen no consequence
of.  :meth:`JournalWriter.simulate_crash` models exactly that: it
discards the unfsynced tail, like a kernel losing its page cache.

Reading tolerates a torn final record (the normal signature of a crash
mid-append) and reports it via :attr:`JournalReadResult.torn`;
corruption *before* the tail, or any corruption under ``strict=True``,
raises :class:`~repro.errors.JournalCorruptError`.
"""

from __future__ import annotations

import errno
import io
import os
import struct
import threading
import time
from dataclasses import dataclass

from repro.crypto.rand import RandomSource
from repro.crypto.serialization import (
    decode_bytes,
    decode_int,
    encode_bytes,
    encode_int,
)
from repro.errors import (
    IntegrityError,
    JournalCorruptError,
    JournalDiskFullError,
    JournalError,
    JournalReplayError,
)
from repro.pisa.storage import frame_payload, unframe_payload

__all__ = [
    "JOURNAL_HEADER",
    "JournalRecord",
    "JournalReadResult",
    "JournalWriter",
    "read_journal",
    "EpochJournal",
    "JournalingRandomSource",
    "ReplayRandomSource",
    "JournaledClock",
    "ReplayClock",
]

JOURNAL_HEADER = b"PISA-JOURNAL-v1\n"

_CLOCK = struct.Struct(">d")


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    seq: int
    kind: str
    body: bytes


@dataclass(frozen=True)
class JournalReadResult:
    """Everything a recovery pass learns from one journal file."""

    records: tuple[JournalRecord, ...]
    #: True when the file ends in a torn (partially written) record —
    #: the normal signature of a crash mid-append.
    torn: bool
    #: Offset of the first byte past the last intact record.
    valid_bytes: int

    def of_kind(self, kind: str) -> tuple[JournalRecord, ...]:
        return tuple(r for r in self.records if r.kind == kind)

    def draws(self) -> tuple[tuple[int, int], ...]:
        """The journaled RNG stream as ``(bits, value)`` pairs."""
        out = []
        for record in self.of_kind("draw"):
            bits, offset = decode_int(record.body, 0)
            value, _ = decode_int(record.body, offset)
            out.append((bits, value))
        return tuple(out)

    def clocks(self) -> tuple[float, ...]:
        """The journaled clock stream, in read order."""
        return tuple(
            _CLOCK.unpack(record.body)[0] for record in self.of_kind("clock")
        )


class JournalWriter:
    """Append-only, CRC-framed, fsync-batched journal file.

    Parameters
    ----------
    path:
        Journal file path; created (with header) if absent, appended to
        if present.  Pass ``fileobj`` instead to write to an arbitrary
        binary file object (the chaos harness uses this to model a
        filling disk).
    fsync_every:
        Flush-and-fsync after this many appended records.  ``barrier()``
        forces one regardless, so this only bounds how much un-barriered
        tail a crash can lose — correctness never depends on it.  The
        default of 256 keeps the journal's share of a round under the
        15 % budget (per-draw fsyncs cost ~40 % round latency); the
        bench spine reports it as ``resilience.journal_append_s`` on
        ``churn_journaled``, ≈ 1 % of a request.
    """

    def __init__(self, path=None, *, fileobj=None, fsync_every: int = 256) -> None:
        if (path is None) == (fileobj is None):
            raise JournalError("pass exactly one of path / fileobj")
        if fsync_every < 1:
            raise JournalError("fsync_every must be positive")
        self.fsync_every = fsync_every
        self._path = os.fspath(path) if path is not None else None
        if fileobj is not None:
            self._fh = fileobj
            fresh = True
        else:
            fresh = not (
                os.path.exists(self._path) and os.path.getsize(self._path) > 0
            )
            self._fh = open(self._path, "ab")
        self._closed = False
        # Appends can race between the protocol thread and the service
        # broker's epoch loop; one lock serialises the record stream.
        self._mutex = threading.Lock()
        self._seq = 0
        self._since_sync = 0
        #: Bytes known durable (fsynced); everything past this offset is
        #: lost by :meth:`simulate_crash`.
        self._synced_offset = 0
        if fresh:
            self._write(JOURNAL_HEADER)
            self._sync()

    # -- low-level I/O -----------------------------------------------------------

    def _write(self, data: bytes) -> None:
        try:
            self._fh.write(data)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise JournalDiskFullError(
                    "journal device is full; free space or swap the device"
                ) from exc
            raise JournalError(f"journal append failed: {exc}") from exc

    def _sync(self) -> None:
        self._fh.flush()
        fileno = getattr(self._fh, "fileno", None)
        if fileno is not None:
            try:
                os.fsync(fileno())
            except (OSError, io.UnsupportedOperation):
                pass  # in-memory file objects have nothing to sync
        self._since_sync = 0
        self._synced_offset = self._fh.tell()

    # -- the public API ----------------------------------------------------------

    def append(self, kind: str, body: bytes = b"") -> int:
        """Append one record; returns its sequence number."""
        with self._mutex:
            if self._closed:
                raise JournalError("journal writer is closed")
            payload = encode_bytes(kind.encode("utf-8")) + encode_bytes(body)
            self._write(frame_payload(payload))
            seq = self._seq
            self._seq += 1
            self._since_sync += 1
            if self._since_sync >= self.fsync_every:
                self._sync()
            return seq

    def barrier(self) -> None:
        """Force the buffered tail onto the device (durability point)."""
        with self._mutex:
            if self._closed:
                raise JournalError("journal writer is closed")
            self._sync()

    def swap_device(self, path=None, *, fileobj=None) -> None:
        """Re-open on a fresh device after a disk-full failure.

        The old handle is abandoned (its tail may be lost); appends
        continue on the new device.  Recovery reads both files in order.
        """
        try:
            self._fh.close()
        except OSError:
            pass
        replacement = JournalWriter(path, fileobj=fileobj,
                                    fsync_every=self.fsync_every)
        self._fh = replacement._fh
        self._path = replacement._path
        self._synced_offset = replacement._synced_offset
        self._since_sync = 0

    def simulate_crash(self) -> None:
        """Model a process kill: drop every record since the last fsync.

        Truncates the file to the last durable offset and closes the
        writer — exactly the on-disk state a recovering process finds.
        Only meaningful for path-backed journals.
        """
        with self._mutex:
            if self._path is None:
                raise JournalError("simulate_crash needs a path-backed journal")
            self._fh.flush()
            with open(self._path, "r+b") as fh:
                fh.truncate(self._synced_offset)
            self._fh.close()
            self._closed = True

    def close(self) -> None:
        with self._mutex:
            if not self._closed:
                self._sync()
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._closed = True

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def records_written(self) -> int:
        return self._seq

    @property
    def path(self) -> str | None:
        """The backing file path (``None`` for fileobj-backed writers)."""
        return self._path


def read_journal(source, strict: bool = False) -> JournalReadResult:
    """Decode a journal from a path or a bytes blob.

    A torn or corrupt *final* record is tolerated by default (reported
    via :attr:`JournalReadResult.torn`); under ``strict=True``, or when
    intact frames follow the damage (mid-file corruption), a
    :class:`~repro.errors.JournalCorruptError` is raised.
    """
    if isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        with open(os.fspath(source), "rb") as fh:
            raw = fh.read()
    if not raw.startswith(JOURNAL_HEADER):
        raise JournalCorruptError("missing journal header")
    offset = len(JOURNAL_HEADER)
    records: list[JournalRecord] = []
    torn = False
    while offset < len(raw):
        try:
            payload, next_offset = unframe_payload(raw, offset)
        except IntegrityError as exc:
            if strict:
                raise JournalCorruptError(
                    f"corrupt record {len(records)} at offset {offset}: {exc}"
                ) from exc
            # Tolerate damage only if nothing intact follows it — scan
            # ahead for a parseable frame to distinguish a torn tail
            # from mid-file corruption.
            if _intact_frame_follows(raw, offset + 1):
                raise JournalCorruptError(
                    f"mid-journal corruption at offset {offset} "
                    f"(record {len(records)})"
                ) from exc
            torn = True
            break
        try:
            kind_raw, body_offset = decode_bytes(payload, 0)
            body, end = decode_bytes(payload, body_offset)
            kind = kind_raw.decode("utf-8")
        except Exception as exc:
            raise JournalCorruptError(
                f"record {len(records)} payload is malformed: {exc}"
            ) from exc
        if end != len(payload):
            raise JournalCorruptError(
                f"record {len(records)} has trailing payload bytes"
            )
        records.append(JournalRecord(seq=len(records), kind=kind, body=body))
        offset = next_offset
    return JournalReadResult(
        records=tuple(records), torn=torn, valid_bytes=offset
    )


def _intact_frame_follows(raw: bytes, start: int) -> bool:
    """True when a parseable CRC frame exists anywhere past ``start``."""
    probe = start
    while True:
        probe = raw.find(b"PF", probe)
        if probe < 0:
            return False
        try:
            unframe_payload(raw, probe)
            return True
        except IntegrityError:
            probe += 1


class EpochJournal:
    """Protocol-level facade over a :class:`JournalWriter`.

    The coordinator, shards, replica sets, and broker all log through
    one of these; it owns the record schema so the writer stays a dumb
    framed-append device.
    """

    def __init__(self, writer: JournalWriter) -> None:
        self.writer = writer

    # -- the two replayable streams ---------------------------------------------

    def record_draw(self, bits: int, value: int) -> None:
        self.writer.append("draw", encode_int(bits) + encode_int(value))

    def record_clock(self, value: float) -> None:
        self.writer.append("clock", _CLOCK.pack(value))

    # -- protocol step markers ---------------------------------------------------

    def phase1_committed(self, round_id: str) -> None:
        """Phase-1 randomness is drawn; barrier before the scatter."""
        self.writer.append("phase1", round_id.encode("utf-8"))
        self.writer.barrier()

    def phase2_committed(self, round_id: str) -> None:
        """Phase-2 randomness + license clock are drawn; barrier."""
        self.writer.append("phase2", round_id.encode("utf-8"))
        self.writer.barrier()

    def pu_update(self, message_bytes: bytes) -> None:
        self.writer.append("pu-update", message_bytes)

    def epoch_commit(self, shard_id: str, epoch_id: int) -> None:
        self.writer.append(
            "epoch-commit", f"{shard_id}:{epoch_id}".encode("utf-8")
        )

    def promote(self, shard_id: str, resumed_epoch: int) -> None:
        self.writer.append(
            "promote", f"{shard_id}:{resumed_epoch}".encode("utf-8")
        )

    def fence(self, shard_id: str, token: int, reason: str) -> None:
        """A new lease was issued: every lower token for the shard is dead.

        Barriered — the fence must be durable *before* the successor
        serves, or a crash between promote and fsync could replay a
        world where the zombie's lease is still current.
        """
        self.writer.append(
            "fence", f"{shard_id}:{token}:{reason}".encode("utf-8")
        )
        self.writer.barrier()

    def writer_commit(self, shard_id: str, epoch_id: int, token: int) -> None:
        """Provenance for one epoch commit: *which lease* performed it.

        Kept separate from ``epoch-commit`` (whose ``shard:epoch`` body
        is parsed by cold-start tail recovery) so the exactly-one-writer
        checker can attribute commits to leases without changing the
        recovery wire format.
        """
        self.writer.append(
            "writer", f"{shard_id}:{epoch_id}:{token}".encode("utf-8")
        )

    def epoch_dispatch(self, epoch_id: int, request_ids: tuple[str, ...]) -> None:
        body = ",".join(request_ids).encode("utf-8")
        self.writer.append("epoch-dispatch", encode_int(epoch_id) + body)

    def note(self, text: str, body: bytes = b"") -> None:
        self.writer.append("note", text.encode("utf-8") + b"\x00" + body)

    def barrier(self) -> None:
        self.writer.barrier()

    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "EpochJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        # Flush-on-exit mirrors JournalWriter: leaving the block (even
        # via an exception) must not strand up to fsync_every-1 records
        # in the userspace buffer.
        self.close()


class JournalingRandomSource(RandomSource):
    """Wraps any :class:`~repro.crypto.rand.RandomSource`, journaling draws.

    Every ``randbits`` call — the single primitive all higher-level
    sampling reduces to — is logged as a ``draw`` record *after* the
    value is produced, so the journal is exactly the stream a replay
    needs.
    """

    def __init__(self, inner: RandomSource, journal: EpochJournal) -> None:
        self._inner = inner
        self._journal = journal
        self.draws_journaled = 0

    def randbits(self, bits: int) -> int:
        value = self._inner.randbits(bits)
        self._journal.record_draw(bits, value)
        self.draws_journaled += 1
        return value


class ReplayRandomSource(RandomSource):
    """Serves journaled draws in order, then falls through to a live RNG.

    Replay is *checked*: a request for a different bit-width than the
    journal recorded means the recovering code diverged from the crashed
    code path, and raises :class:`~repro.errors.JournalReplayError`
    rather than silently desynchronizing the transcript.
    """

    def __init__(
        self, draws, fallback: RandomSource | None = None
    ) -> None:
        self._draws = list(draws)
        self._cursor = 0
        self._fallback = fallback
        self.replayed_draws = 0
        self.fallback_draws = 0

    def randbits(self, bits: int) -> int:
        if self._cursor < len(self._draws):
            recorded_bits, value = self._draws[self._cursor]
            if recorded_bits != bits:
                raise JournalReplayError(
                    f"replay divergence at draw {self._cursor}: journal has "
                    f"{recorded_bits}-bit draw, code asked for {bits} bits"
                )
            self._cursor += 1
            self.replayed_draws += 1
            return value
        if self._fallback is None:
            raise JournalReplayError(
                "journal exhausted and no fallback RNG configured"
            )
        self.fallback_draws += 1
        return self._fallback.randbits(bits)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._draws)


class JournaledClock:
    """A clock callable whose every reading is journaled."""

    def __init__(self, journal: EpochJournal, base=time.time) -> None:
        self._journal = journal
        self._base = base

    def __call__(self) -> float:
        value = self._base()
        self._journal.record_clock(value)
        return value


class ReplayClock:
    """Replays journaled clock readings, then falls through to a base."""

    def __init__(self, values, fallback=time.time) -> None:
        self._values = list(values)
        self._cursor = 0
        self._fallback = fallback
        self.replayed_reads = 0
        self.fallback_reads = 0

    def __call__(self) -> float:
        if self._cursor < len(self._values):
            value = self._values[self._cursor]
            self._cursor += 1
            self.replayed_reads += 1
            return value
        self.fallback_reads += 1
        return self._fallback()
