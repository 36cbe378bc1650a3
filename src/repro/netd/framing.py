"""Length-prefixed, CRC-checked frames for the socket plane.

One frame carries one message between processes::

    b"NP" | u32 body_len | body | u32 crc32(body)
    body  = encode_bytes(kind) + encode_int(seq) + encode_bytes(payload)

The envelope mirrors :func:`repro.pisa.storage.frame_payload` (magic,
explicit length, trailing CRC over the body) with two stream-oriented
additions: the length prefix sits *outside* the body so a reader can
size its next read before trusting anything else, and the body carries
a ``kind`` tag plus a ``seq`` echo so responses pair with requests on a
pooled connection.

Payloads are the canonical byte encodings — ``pisa.messages.to_bytes``
for protocol messages, :mod:`repro.netd.wire` codecs for shard
sub-queries and control frames — so the socket plane adds framing, not
a second serialisation format.

Corruption anywhere (bad magic, torn frame, truncated length prefix,
CRC mismatch, garbage body) raises
:class:`~repro.errors.IntegrityError`, the same taxonomy the snapshot
and journal readers use.
"""

from __future__ import annotations

import collections
import socket
import struct  # audit-ok: NET001 — netd owns the frame header layout
import time
import zlib

from repro.crypto.serialization import decode_bytes, decode_int, encode_bytes, encode_int
from repro.errors import IntegrityError, SerializationError

__all__ = [
    "FRAME_MAGIC",
    "FRAME_OVERHEAD",
    "MAX_FRAME_BYTES",
    "Frame",
    "FrameDecoder",
    "FrameStream",
    "decode_frame",
    "encode_frame",
]

FRAME_MAGIC = b"NP"
_LEN = struct.Struct(">I")
_HEADER_SIZE = len(FRAME_MAGIC) + _LEN.size
#: magic + length prefix + trailing CRC.
FRAME_OVERHEAD = _HEADER_SIZE + 4
#: Default ceiling on one frame's body.  A paper-scale phase-1
#: sub-query at 2048-bit keys is a few MB; 256 MB rejects garbage
#: lengths (a corrupt prefix would otherwise stall a reader waiting for
#: gigabytes) without constraining any real message.
MAX_FRAME_BYTES = 256 * 1024 * 1024
_RECV_BYTES = 1 << 18


class Frame:
    """One decoded frame: a ``kind`` tag, a ``seq`` echo, and the payload."""

    __slots__ = ("kind", "seq", "payload")

    def __init__(self, kind: str, seq: int, payload: bytes) -> None:
        self.kind = kind
        self.seq = seq
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Frame)
            and self.kind == other.kind
            and self.seq == other.seq
            and self.payload == other.payload
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.kind!r}, seq={self.seq}, {len(self.payload)}B)"


def encode_frame(kind: str, seq: int, payload: bytes) -> bytes:
    """Serialise one frame; the inverse of :func:`decode_frame`."""
    body = encode_bytes(kind.encode("utf-8")) + encode_int(seq) + encode_bytes(payload)
    return FRAME_MAGIC + _LEN.pack(len(body)) + body + _LEN.pack(zlib.crc32(body))


def _decode_body(body: bytes) -> Frame:
    try:
        kind_bytes, offset = decode_bytes(body, 0)
        seq, offset = decode_int(body, offset)
        payload, offset = decode_bytes(body, offset)
        kind = kind_bytes.decode("utf-8")
    except (SerializationError, UnicodeDecodeError) as exc:
        raise IntegrityError(f"frame body is malformed: {exc}") from exc
    if offset != len(body):
        raise IntegrityError(f"frame body has {len(body) - offset} trailing bytes")
    return Frame(kind, seq, payload)


def _parse(buffer, offset: int, max_frame_bytes: int) -> tuple[Frame, int] | None:
    """The header checks, once: the frame at ``offset`` and where it ends.

    ``None`` means the buffer stops before the frame does.  Magic and the
    length cap are judged as soon as the six header bytes are there, the
    CRC once the whole frame is.
    """
    header_end = offset + _HEADER_SIZE
    if len(buffer) < header_end:
        return None
    if buffer[offset : offset + len(FRAME_MAGIC)] != FRAME_MAGIC:
        raise IntegrityError("bad frame magic")
    (body_len,) = _LEN.unpack_from(buffer, offset + len(FRAME_MAGIC))
    if body_len > max_frame_bytes:
        raise IntegrityError(
            f"frame body of {body_len} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    end = header_end + body_len + 4
    if len(buffer) < end:
        return None
    body = bytes(buffer[header_end : header_end + body_len])
    (expected_crc,) = _LEN.unpack_from(buffer, header_end + body_len)
    if zlib.crc32(body) != expected_crc:
        raise IntegrityError("frame CRC mismatch")
    return _decode_body(body), end


def decode_frame(
    buffer: bytes, offset: int = 0, max_frame_bytes: int = MAX_FRAME_BYTES
) -> tuple[Frame, int]:
    """Decode one whole frame at ``offset``; returns ``(frame, next_offset)``."""
    parsed = _parse(buffer, offset, max_frame_bytes)
    if parsed is None:
        if len(buffer) < offset + _HEADER_SIZE:
            raise IntegrityError("frame truncated inside the length prefix")
        raise IntegrityError("frame truncated before its CRC")
    return parsed


class FrameDecoder:
    """Incremental decoder for a TCP byte stream.

    Feed arbitrary chunks; complete frames come out in order.  The
    decoder never resynchronises after corruption — a TCP stream with a
    bad frame has no trustworthy continuation, so the connection must be
    torn down (the caller maps :class:`~repro.errors.IntegrityError` to
    a link fault).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Frame]:
        self._buffer.extend(data)
        frames: list[Frame] = []
        while (parsed := _parse(self._buffer, 0, self._max)) is not None:
            frame, end = parsed
            frames.append(frame)
            del self._buffer[:end]
        return frames


class FrameStream:
    """One connection's frames over a blocking ``socket`` / ``ssl`` object.

    The reader is a :class:`FrameDecoder` fed from ``recv``, so a frame
    split across segments and two frames in one segment both come out
    whole and in order.  Both calls block the calling thread, each under
    its own ``timeout`` (``None``: for as long as it takes) and raise
    what the socket raises — ``socket.timeout``, ``OSError`` — plus
    ``EOFError`` when the peer closes and
    :class:`~repro.errors.IntegrityError` on a corrupt frame; the
    connection layer classifies them.
    """

    def __init__(self, sock) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: collections.deque[Frame] = collections.deque()

    def send(self, kind: str, seq: int, payload: bytes, timeout: float | None = None) -> int:
        """Encode and write one frame; returns the bytes put on the wire."""
        data = encode_frame(kind, seq, payload)
        self._sock.settimeout(timeout)
        self._sock.sendall(data)
        return len(data)

    def recv(self, timeout: float | None = None) -> Frame:
        """The next frame; ``timeout`` bounds the whole frame, not one read."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._frames:
            if deadline is not None:
                # A zero timeout would mean non-blocking, not "expired".
                timeout = max(deadline - time.monotonic(), 1e-6)
            self._sock.settimeout(timeout)
            data = self._sock.recv(_RECV_BYTES)
            if not data:
                where = "mid-frame" if self._decoder.pending_bytes else "between frames"
                raise EOFError(f"peer closed the connection {where}")
            self._frames.extend(self._decoder.feed(data))
        return self._frames.popleft()

    def shutdown(self) -> None:
        """End the connection from any thread: a blocked :meth:`recv` wakes
        with EOF and the thread that owns the stream goes on to close it."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer reset it first, or the owner already closed it

    def close(self) -> None:
        self._sock.close()
