"""Canonical wire encodings with exact size accounting.

§VI-A of the paper reports *communication* overhead — the 29 MB request
ciphertext matrix, the ≈0.05 MB PU update, the 4.1 kb response — so the
reproduction needs a byte-exact serialisation layer, not just object
graphs.  Every protocol message in :mod:`repro.pisa.messages` serialises
through these helpers, and :mod:`repro.net.transport` accounts the sizes.

Format
------
A self-describing little format (not interoperable, but canonical and
versioned):

* integers: 4-byte big-endian length prefix + big-endian magnitude;
* ciphertexts: the integer encoding of the ciphertext value (a Paillier
  ciphertext under an ``k``-bit key occupies ``2k`` bits ≈ ``k/4`` bytes,
  matching Table II's "ciphertext size 4096 bits" for ``n`` of 2048 bits);
* matrices: dimensions plus row-major entries.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.errors import SerializationError

__all__ = [
    "encode_int",
    "decode_int",
    "encoded_int_size",
    "encode_ciphertext",
    "decode_ciphertext",
    "ciphertext_wire_size",
    "encode_ciphertext_matrix",
    "decode_ciphertext_matrix",
    "check_matrix_shape",
    "encode_bytes",
    "decode_bytes",
    "encode_str",
    "decode_str",
]

_LEN = struct.Struct(">I")


def encode_int(value: int) -> bytes:
    """Length-prefixed big-endian encoding of a non-negative integer."""
    if value < 0:
        raise SerializationError("only non-negative integers are wire-encodable")
    body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return _LEN.pack(len(body)) + body


def decode_int(buffer: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an integer; returns ``(value, next_offset)``."""
    if offset + 4 > len(buffer):
        raise SerializationError("truncated integer length prefix")
    (length,) = _LEN.unpack_from(buffer, offset)
    offset += 4
    if offset + length > len(buffer):
        raise SerializationError("truncated integer body")
    return int.from_bytes(buffer[offset : offset + length], "big"), offset + length


def encoded_int_size(value: int) -> int:
    """Wire size in bytes of :func:`encode_int` without building the bytes."""
    return 4 + ((value.bit_length() + 7) // 8 or 1)


def encode_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string."""
    return _LEN.pack(len(data)) + data


def decode_bytes(buffer: bytes, offset: int = 0) -> tuple[bytes, int]:
    if offset + 4 > len(buffer):
        raise SerializationError("truncated bytes length prefix")
    (length,) = _LEN.unpack_from(buffer, offset)
    offset += 4
    if offset + length > len(buffer):
        raise SerializationError("truncated bytes body")
    return bytes(buffer[offset : offset + length]), offset + length


def encode_str(value: str) -> bytes:
    """Length-prefixed UTF-8 string."""
    return encode_bytes(value.encode("utf-8"))


def decode_str(buffer: bytes, offset: int = 0) -> tuple[str, int]:
    """Decode a string field; a peer's invalid UTF-8 is a typed error."""
    raw, offset = decode_bytes(buffer, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise SerializationError(f"corrupt string field: {exc}") from exc


def encode_ciphertext(ct: EncryptedNumber) -> bytes:
    """Encode a ciphertext as its raw integer (key carried out of band)."""
    return encode_int(ct.ciphertext)


def decode_ciphertext(
    buffer: bytes, public_key: PaillierPublicKey, offset: int = 0
) -> tuple[EncryptedNumber, int]:
    value, offset = decode_int(buffer, offset)
    if value >= public_key.n_sq:
        raise SerializationError("ciphertext exceeds n² for the given key")
    return EncryptedNumber(public_key, value), offset


def ciphertext_wire_size(public_key: PaillierPublicKey) -> int:
    """Fixed upper-bound wire size of one ciphertext under ``public_key``.

    Table II: a ciphertext is ``2·key_bits`` bits; plus our 4-byte prefix.
    """
    return 4 + (2 * public_key.key_bits + 7) // 8


def encode_ciphertext_matrix(
    rows: Sequence[Sequence[EncryptedNumber]],
) -> bytes:
    """Row-major encoding of a 2-D ciphertext matrix with dimensions."""
    if not rows:
        return _LEN.pack(0) + _LEN.pack(0)
    n_rows = len(rows)
    n_cols = len(rows[0])
    parts = [_LEN.pack(n_rows), _LEN.pack(n_cols)]
    for row in rows:
        if len(row) != n_cols:
            raise SerializationError("ragged ciphertext matrix")
        parts.extend(encode_ciphertext(ct) for ct in row)
    return b"".join(parts)


#: Fewest bytes one encoded cell occupies: a length prefix and one byte.
_MIN_CELL_BYTES = _LEN.size + 1


def check_matrix_shape(n_rows: int, n_cols: int, bytes_left: int) -> None:
    """Reject a ``(rows, cols)`` header the rest of the buffer cannot hold.

    A peer's header is a claim, and the decode loops run ``rows × cols``
    times: without this a few bytes saying "20 million rows of no
    columns" cost seconds of work and millions of empty lists.  Every
    cell takes at least :data:`_MIN_CELL_BYTES`, and rows without
    columns carry nothing, so both are refused before the first
    allocation.
    """
    if n_cols == 0 and n_rows != 0:
        raise SerializationError(f"matrix header claims {n_rows} rows of no columns")
    if n_rows * n_cols * _MIN_CELL_BYTES > bytes_left:
        raise SerializationError(
            f"matrix header claims {n_rows}x{n_cols} cells; "
            f"{bytes_left} bytes cannot hold them"
        )


def decode_ciphertext_matrix(
    buffer: bytes, public_key: PaillierPublicKey, offset: int = 0
) -> tuple[list[list[EncryptedNumber]], int]:
    if offset + 8 > len(buffer):
        raise SerializationError("truncated matrix header")
    (n_rows,) = _LEN.unpack_from(buffer, offset)
    (n_cols,) = _LEN.unpack_from(buffer, offset + 4)
    offset += 8
    check_matrix_shape(n_rows, n_cols, len(buffer) - offset)
    matrix: list[list[EncryptedNumber]] = []
    for _ in range(n_rows):
        row: list[EncryptedNumber] = []
        for _ in range(n_cols):
            ct, offset = decode_ciphertext(buffer, public_key, offset)
            row.append(ct)
        matrix.append(row)
    return matrix, offset


def matrix_wire_size(entries: Iterable[EncryptedNumber]) -> int:
    """Exact wire size of a matrix given its entries (plus 8-byte header)."""
    return 8 + sum(encoded_int_size(ct.ciphertext) for ct in entries)


__all__.append("matrix_wire_size")


# -- key serialisation -----------------------------------------------------------


def encode_public_key(public_key: PaillierPublicKey) -> bytes:
    """Canonical encoding of a Paillier public key ``(n, g)``."""
    return b"PISA-PK-v1" + encode_int(public_key.n) + encode_int(public_key.g)


def decode_public_key(buffer: bytes) -> PaillierPublicKey:
    """Inverse of :func:`encode_public_key`."""
    magic = b"PISA-PK-v1"
    if not buffer.startswith(magic):
        raise SerializationError("not a v1 Paillier public key")
    n, offset = decode_int(buffer, len(magic))
    g, offset = decode_int(buffer, offset)
    if offset != len(buffer):
        raise SerializationError("trailing bytes in public key")
    return PaillierPublicKey(n, g)


def encode_private_key(private_key) -> bytes:
    """Canonical encoding of a Paillier private key (its prime factors).

    The public half is recomputable from ``p·q``; handle with care —
    this is raw secret material for test/CLI persistence only.
    """
    return b"PISA-SK-v1" + encode_int(private_key.p) + encode_int(private_key.q)


def decode_private_key(buffer: bytes):
    """Inverse of :func:`encode_private_key`."""
    from repro.crypto.paillier import PaillierPrivateKey

    magic = b"PISA-SK-v1"
    if not buffer.startswith(magic):
        raise SerializationError("not a v1 Paillier private key")
    p, offset = decode_int(buffer, len(magic))
    q, offset = decode_int(buffer, offset)
    if offset != len(buffer):
        raise SerializationError("trailing bytes in private key")
    return PaillierPrivateKey(PaillierPublicKey(p * q), p, q)


__all__.extend([
    "encode_public_key",
    "decode_public_key",
    "encode_private_key",
    "decode_private_key",
])

