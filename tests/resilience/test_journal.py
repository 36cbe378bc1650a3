"""Write-ahead journal: framing, durability barriers, crash-shaped reads."""

import errno
import io
import sys
import threading

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import (
    JournalCorruptError,
    JournalDiskFullError,
    JournalError,
    JournalReplayError,
)
from repro.resilience.journal import (
    JOURNAL_HEADER,
    EpochJournal,
    JournaledClock,
    JournalingRandomSource,
    JournalWriter,
    ReplayClock,
    ReplayRandomSource,
    read_journal,
)


def _journal_bytes(*appends, fsync_every=1) -> bytes:
    buffer = io.BytesIO()
    writer = JournalWriter(fileobj=buffer, fsync_every=fsync_every)
    for kind, body in appends:
        writer.append(kind, body)
    writer.barrier()  # close() would also close the BytesIO
    return buffer.getvalue()


class TestWriter:
    def test_fresh_file_gets_header(self, tmp_path):
        path = tmp_path / "epoch.journal"
        JournalWriter(path).close()
        assert path.read_bytes() == JOURNAL_HEADER

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "epoch.journal"
        with JournalWriter(path) as writer:
            writer.append("note", b"first")
        with JournalWriter(path) as writer:
            writer.append("note", b"second")
        result = read_journal(path)
        assert [r.body for r in result.records] == [b"first", b"second"]
        assert path.read_bytes().count(JOURNAL_HEADER) == 1

    def test_requires_exactly_one_device(self, tmp_path):
        with pytest.raises(JournalError):
            JournalWriter()
        with pytest.raises(JournalError):
            JournalWriter(tmp_path / "j", fileobj=io.BytesIO())

    def test_rejects_nonpositive_fsync_every(self):
        with pytest.raises(JournalError):
            JournalWriter(fileobj=io.BytesIO(), fsync_every=0)

    def test_append_after_close_raises(self):
        writer = JournalWriter(fileobj=io.BytesIO())
        writer.close()
        with pytest.raises(JournalError):
            writer.append("note", b"late")

    def test_sequence_numbers_are_dense(self):
        writer = JournalWriter(fileobj=io.BytesIO())
        assert [writer.append("note", b"") for _ in range(3)] == [0, 1, 2]
        assert writer.records_written == 3


class TestCrashSemantics:
    def test_simulate_crash_drops_unsynced_tail(self, tmp_path):
        path = tmp_path / "epoch.journal"
        writer = JournalWriter(path, fsync_every=100)
        for i in range(3):
            writer.append("note", b"durable-%d" % i)
        writer.barrier()
        writer.append("note", b"lost-1")
        writer.append("note", b"lost-2")
        writer.simulate_crash()
        result = read_journal(path)
        assert not result.torn  # truncation lands on a frame boundary
        assert [r.body for r in result.records] == [
            b"durable-0",
            b"durable-1",
            b"durable-2",
        ]

    def test_simulate_crash_needs_a_path(self):
        writer = JournalWriter(fileobj=io.BytesIO())
        with pytest.raises(JournalError):
            writer.simulate_crash()

    def test_torn_tail_tolerated_and_reported(self):
        raw = _journal_bytes(("note", b"a"), ("note", b"b"))
        torn = raw[:-3]  # cut into the final record's checksum
        result = read_journal(torn)
        assert result.torn
        assert [r.body for r in result.records] == [b"a"]

    def test_every_truncation_yields_prefix_or_typed_error(self):
        raw = _journal_bytes(("note", b"alpha"), ("note", b"beta"))
        for cut in range(len(raw)):
            prefix = raw[:cut]
            if cut < len(JOURNAL_HEADER):
                with pytest.raises(JournalCorruptError):
                    read_journal(prefix)
                continue
            result = read_journal(prefix)
            assert len(result.records) <= 2  # never invents records

    def test_strict_mode_rejects_torn_tail(self):
        raw = _journal_bytes(("note", b"a"), ("note", b"b"))
        with pytest.raises(JournalCorruptError):
            read_journal(raw[:-3], strict=True)

    def test_mid_file_corruption_is_not_a_torn_tail(self):
        raw = bytearray(_journal_bytes(("note", b"aaaa"), ("note", b"bbbb")))
        raw[len(JOURNAL_HEADER) + 3] ^= 0xFF  # flip a byte in record 0
        with pytest.raises(JournalCorruptError):
            read_journal(bytes(raw))

    def test_missing_header_rejected(self):
        with pytest.raises(JournalCorruptError):
            read_journal(b"not a journal")


class _ENOSPCFile(io.BytesIO):
    """Raises ENOSPC once more than ``limit`` bytes have been written."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def write(self, data):
        if self.tell() + len(data) > self.limit:
            raise OSError(errno.ENOSPC, "device full")
        return super().write(data)


class TestDiskFull:
    def test_enospc_surfaces_as_typed_error(self):
        writer = JournalWriter(
            fileobj=_ENOSPCFile(len(JOURNAL_HEADER) + 8), fsync_every=1
        )
        with pytest.raises(JournalDiskFullError):
            writer.append("note", b"x" * 64)

    def test_swap_device_resumes_appends(self):
        first = _ENOSPCFile(len(JOURNAL_HEADER) + 8)
        writer = JournalWriter(fileobj=first, fsync_every=1)
        with pytest.raises(JournalDiskFullError):
            writer.append("note", b"x" * 64)
        second = io.BytesIO()
        writer.swap_device(fileobj=second)
        writer.append("note", b"after-swap")
        writer.barrier()
        result = read_journal(second.getvalue())
        assert [r.body for r in result.records] == [b"after-swap"]


class TestEpochJournalSchema:
    def test_draw_and_clock_streams_round_trip(self):
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer, fsync_every=1))
        journal.record_draw(16, 0xBEEF)
        journal.record_clock(1_700_000_000.5)
        journal.record_draw(128, 1 << 100)
        journal.barrier()
        result = read_journal(buffer.getvalue())
        assert result.draws() == ((16, 0xBEEF), (128, 1 << 100))
        assert result.clocks() == (1_700_000_000.5,)

    def test_phase_markers_carry_round_ids(self):
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer, fsync_every=100))
        journal.phase1_committed("round-0")
        journal.phase2_committed("round-0")
        journal.epoch_commit("shard-1", 4)
        journal.promote("shard-1", 4)
        journal.barrier()
        result = read_journal(buffer.getvalue())
        assert result.of_kind("phase1")[0].body == b"round-0"
        assert result.of_kind("phase2")[0].body == b"round-0"
        assert result.of_kind("epoch-commit")[0].body == b"shard-1:4"
        assert result.of_kind("promote")[0].body == b"shard-1:4"

    def test_barrier_makes_marker_durable_before_fsync_every(self, tmp_path):
        path = tmp_path / "epoch.journal"
        writer = JournalWriter(path, fsync_every=1000)
        journal = EpochJournal(writer)
        journal.record_draw(8, 42)
        journal.phase1_committed("round-0")  # barrier inside
        writer.simulate_crash()
        result = read_journal(path)
        assert result.draws() == ((8, 42),)
        assert len(result.of_kind("phase1")) == 1

    def test_context_manager_flushes_buffered_tail_on_exit(self, tmp_path):
        # Regression: a bare `EpochJournal(JournalWriter(path))` that is
        # never closed leaves up to fsync_every-1 records in the write
        # buffer.  The context-manager exit must flush them, even when
        # the body raises.
        path = tmp_path / "epoch.journal"
        with pytest.raises(RuntimeError):
            with EpochJournal(JournalWriter(path, fsync_every=256)) as journal:
                journal.note("buffered-well-below-fsync-every")
                raise RuntimeError("body crashed")
        result = read_journal(path)
        assert [r.kind for r in result.records] == ["note"]
        assert not result.torn

    def test_mid_buffer_kill_loses_only_the_unsynced_tail(self, tmp_path):
        # The failure the context manager guards against: a kill between
        # fsyncs drops the buffered records — durable prefix intact.
        path = tmp_path / "epoch.journal"
        writer = JournalWriter(path, fsync_every=256)
        journal = EpochJournal(writer)
        journal.note("durable")
        journal.barrier()
        journal.note("buffered-at-kill-time")
        writer.simulate_crash()
        result = read_journal(path)
        assert [r.body for r in result.of_kind("note")] == [b"durable\x00"]
        assert not result.torn


class TestReplaySources:
    def test_journaled_rng_replays_to_exact_values(self):
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer, fsync_every=1))
        live = JournalingRandomSource(DeterministicRandomSource(7), journal)
        drawn = [live.randbits(bits) for bits in (8, 64, 256, 8)]
        journal.barrier()
        assert live.draws_journaled == 4

        replay = ReplayRandomSource(read_journal(buffer.getvalue()).draws())
        assert [replay.randbits(bits) for bits in (8, 64, 256, 8)] == drawn
        assert replay.replayed_draws == 4
        assert replay.exhausted

    def test_threaded_draws_journal_in_draw_order(self):
        """Journal order is draw order with several threads drawing: the
        journal replays as the serial stream of the widths it records."""
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer))
        live = JournalingRandomSource(DeterministicRandomSource(1), journal)

        def draw(widths):
            for bits in widths * 1000:
                live.randbits(bits)

        threads = [
            threading.Thread(target=draw, args=(widths,))
            for widths in ([8, 256, 64], [100, 7, 256], [33, 512, 1], [64, 64, 200])
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        journal.barrier()
        draws = read_journal(buffer.getvalue()).draws()
        assert len(draws) == live.draws_journaled == 12000
        serial = DeterministicRandomSource(1)
        assert list(draws) == [(bits, serial.randbits(bits)) for bits, _ in draws]

    def test_bit_width_divergence_is_typed(self):
        replay = ReplayRandomSource([(8, 42)])
        with pytest.raises(JournalReplayError):
            replay.randbits(16)

    def test_exhaustion_without_fallback_is_typed(self):
        replay = ReplayRandomSource([])
        with pytest.raises(JournalReplayError):
            replay.randbits(8)

    def test_fallback_engages_past_the_journal(self):
        fallback = DeterministicRandomSource(99)
        expected = DeterministicRandomSource(99).randbits(32)
        replay = ReplayRandomSource([(8, 1)], fallback=fallback)
        assert replay.randbits(8) == 1
        assert replay.randbits(32) == expected
        assert replay.fallback_draws == 1

    def test_clock_streams_round_trip(self):
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer, fsync_every=1))
        ticks = iter([10.0, 20.0])
        clock = JournaledClock(journal, base=lambda: next(ticks))
        assert [clock(), clock()] == [10.0, 20.0]
        journal.barrier()

        replay = ReplayClock(
            read_journal(buffer.getvalue()).clocks(), fallback=lambda: 99.0
        )
        assert [replay(), replay(), replay()] == [10.0, 20.0, 99.0]
        assert replay.replayed_reads == 2
        assert replay.fallback_reads == 1
