"""Fuzz-ish corruption coverage for the CRC frame layer and snapshot blobs.

Every truncation and every single-byte flip of a durable artifact must
surface as a *typed* :mod:`repro.errors` exception — never a crash with
a bare ``struct``/``IndexError`` and never silently-wrong state.
"""

import pytest

from repro.errors import IntegrityError, SerializationError
from repro.pisa.storage import (
    FRAME_OVERHEAD,
    frame_payload,
    restore_directory,
    unframe_payload,
)

TYPED = (IntegrityError, SerializationError)


class TestFrameRoundTrip:
    def test_round_trip(self):
        framed = frame_payload(b"hello")
        payload, offset = unframe_payload(framed)
        assert payload == b"hello"
        assert offset == len(framed)

    def test_empty_payload_round_trips(self):
        payload, _ = unframe_payload(frame_payload(b""))
        assert payload == b""

    def test_overhead_constant_is_exact(self):
        assert len(frame_payload(b"x" * 10)) == 10 + FRAME_OVERHEAD

    def test_consecutive_frames_chain_by_offset(self):
        buffer = frame_payload(b"one") + frame_payload(b"two")
        first, offset = unframe_payload(buffer)
        second, end = unframe_payload(buffer, offset)
        assert (first, second) == (b"one", b"two")
        assert end == len(buffer)


class TestFrameCorruption:
    def test_every_truncation_is_typed(self):
        framed = frame_payload(b"a realistic payload, not tiny")
        for cut in range(len(framed)):
            with pytest.raises(IntegrityError):
                unframe_payload(framed[:cut])

    def test_every_single_byte_flip_is_typed(self):
        framed = frame_payload(b"flip me")
        for index in range(len(framed)):
            corrupted = bytearray(framed)
            corrupted[index] ^= 0xFF
            with pytest.raises(IntegrityError):
                unframe_payload(bytes(corrupted))

    def test_wrong_magic_is_typed(self):
        framed = b"XX" + frame_payload(b"data")[2:]
        with pytest.raises(IntegrityError):
            unframe_payload(framed)

    def test_payload_swap_fails_crc(self):
        framed = bytearray(frame_payload(b"AAAA"))
        framed[-8:-4] = b"BBBB"  # swap payload, keep old CRC
        with pytest.raises(IntegrityError):
            unframe_payload(bytes(framed))


class TestSnapshotBlobFuzz:
    """Truncating a real directory snapshot must always raise typed."""

    def test_directory_snapshot_truncations(self, coordinator):
        from repro.pisa.storage import serialize_directory

        blob = serialize_directory(coordinator.stp.directory)
        # Fuzz a spread of prefixes (full x every-cut is O(len^2) work on
        # a multi-kB blob; a stride plus the edges covers every decoder
        # state transition).
        cuts = set(range(0, min(len(blob), 64)))
        cuts.update(range(0, len(blob), 37))
        cuts.add(len(blob) - 1)
        for cut in sorted(cuts):
            with pytest.raises(SerializationError):
                restore_directory(blob[:cut])

    def test_directory_snapshot_byte_flips(self, coordinator):
        from repro.pisa.storage import serialize_directory

        blob = serialize_directory(coordinator.stp.directory)
        for index in range(0, len(blob), 53):
            corrupted = bytearray(blob)
            corrupted[index] ^= 0xFF
            try:
                restore_directory(bytes(corrupted))
            except TYPED:
                pass  # typed rejection is the expected common case
            # A flip inside key material can decode into a *different*
            # valid snapshot — that is the CRC frame layer's job to
            # catch (TestStateFile above), not the blob decoder's.
