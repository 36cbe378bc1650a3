"""Byte codecs for everything the socket plane puts in a frame payload.

Three payload families cross process boundaries:

* **Protocol messages** (``pisa.messages``) already own canonical
  ``to_bytes``/``from_bytes`` encodings; frames carry those bytes
  verbatim.  :data:`PROTOCOL_KINDS` names the frame kind per class.
* **Shard sub-queries** (``cluster.shard`` dataclasses) existed only
  in-process before; this module gives them byte codecs built from the
  same :mod:`repro.crypto.serialization` primitives, matching the
  ``wire_size()`` arithmetic the §VI-A accounting already used (ε as a
  one-byte-magnitude sign flag).
* **Control frames** (hello, config, bootstrap, rand, errors)
  are small JSON objects — sorted keys, UTF-8 — optionally followed by
  binary attachments via ``encode_bytes``.  A shard's bootstrap header
  carries its kernel's :class:`~repro.pisa.kernel.CellTable` as
  ``cells`` (:func:`encode_cells`); JSON keeps every ``E`` entry an
  exact int, however wide.  The one binary control
  frame is ``rand_exponents`` (a count out, that many Paillier nonces
  back): its fields are big integers, not JSON's.

Error propagation is typed end to end: a worker catches a
:class:`~repro.errors.ReproError`, ships ``{"error": <class name>,
"message": ...}`` in an ``err`` frame, and :func:`raise_remote_error`
re-raises the same class in the caller — so a remote
``ProtocolError`` is indistinguishable from a local one.
"""

from __future__ import annotations

import json

import repro.errors as errors_module
from repro.cluster.shard import ShardPhase1Request, ShardPhase1Response
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.rand import NONCE_EXPONENT_BITS
from repro.crypto.serialization import (
    check_matrix_shape,
    decode_bytes,
    decode_ciphertext,
    decode_int,
    decode_str,
    encode_bytes,
    encode_ciphertext,
    encode_int,
    encode_str,
)
from repro.errors import ReproError, SerializationError, TransportError
from repro.pisa.blinding import CellBlinding
from repro.pisa.kernel import CellTable
from repro.pisa.messages import (
    LicenseResponse,
    PUUpdateMessage,
    SignExtractionRequest,
    SignExtractionResponse,
    SURequestMessage,
)

__all__ = [
    "MAX_EXPONENTS_PER_FRAME",
    "MAX_RAND_BITS",
    "PROTOCOL_KINDS",
    "decode_cells",
    "decode_control",
    "decode_error",
    "decode_exponents_request",
    "decode_exponents_response",
    "decode_phase1_request",
    "decode_phase1_response",
    "encode_cells",
    "encode_control",
    "encode_error",
    "encode_exponents_request",
    "encode_exponents_response",
    "encode_phase1_request",
    "encode_phase1_response",
    "raise_remote_error",
]

#: Frame kind per protocol message class (payload = ``to_bytes()``).
PROTOCOL_KINDS: dict[type, str] = {
    PUUpdateMessage: "pu_update",
    SURequestMessage: "su_request",
    SignExtractionRequest: "sign_req",
    SignExtractionResponse: "sign_resp",
    LicenseResponse: "license_resp",
}


def _encode_ints(values: tuple[int, ...]) -> bytes:
    return encode_int(len(values)) + b"".join(encode_int(v) for v in values)


def _decode_ints(buffer: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    count, offset = decode_int(buffer, offset)
    out = []
    for _ in range(count):
        value, offset = decode_int(buffer, offset)
        out.append(value)
    return tuple(out), offset


def _decode_shape(
    buffer: bytes, offset: int, columns: tuple[int, ...], what: str
) -> tuple[int, int, int]:
    """A sub-query's ``(rows, cols)`` header, checked before any cell is read.

    The header comes from a peer: it has to fit the bytes that follow
    and agree with the column list it travels with.
    """
    n_rows, offset = decode_int(buffer, offset)
    n_cols, offset = decode_int(buffer, offset)
    check_matrix_shape(n_rows, n_cols, len(buffer) - offset)
    if n_rows and n_cols != len(columns):
        raise SerializationError(
            f"{what} is {n_cols} cells wide but lists {len(columns)} columns"
        )
    return n_rows, n_cols, offset


def _check_consumed(buffer: bytes, offset: int, what: str) -> None:
    if offset != len(buffer):
        raise SerializationError(f"trailing bytes in {what}")


# -- shard sub-queries ------------------------------------------------------------
#
# Dimensions travel as (rows, cols) headers; ε as 0/1 (−1 ↔ 0) so every
# field stays a non-negative ``encode_int`` — the same one-byte-magnitude
# sign flag the dataclasses' ``wire_size()`` arithmetic already assumed.


def encode_phase1_request(request: ShardPhase1Request) -> bytes:
    parts = [
        encode_str(request.round_id),
        encode_str(request.su_id),
        encode_str(request.shard_id),
        encode_int(request.fence_token),
        _encode_ints(request.columns),
        _encode_ints(request.blocks),
        encode_int(len(request.matrix)),
        encode_int(len(request.matrix[0]) if request.matrix else 0),
    ]
    for row, blinding_row in zip(request.matrix, request.blindings):
        for ct, cell in zip(row, blinding_row):
            parts.append(encode_ciphertext(ct))
            parts.append(encode_int(cell.alpha))
            parts.append(encode_int(cell.beta))
            parts.append(encode_int(1 if cell.epsilon == 1 else 0))
    return b"".join(parts)


def decode_phase1_request(
    buffer: bytes, public_key: PaillierPublicKey
) -> ShardPhase1Request:
    round_id, offset = decode_str(buffer, 0)
    su_id, offset = decode_str(buffer, offset)
    shard_id, offset = decode_str(buffer, offset)
    fence_token, offset = decode_int(buffer, offset)
    columns, offset = _decode_ints(buffer, offset)
    blocks, offset = _decode_ints(buffer, offset)
    if len(blocks) != len(columns):
        raise SerializationError("shard phase-1 request: one block per column")
    n_rows, n_cols, offset = _decode_shape(
        buffer, offset, columns, "shard phase-1 request"
    )
    matrix, blindings = [], []
    for _ in range(n_rows):
        ct_row, blinding_row = [], []
        for _ in range(n_cols):
            ct, offset = decode_ciphertext(buffer, public_key, offset)
            alpha, offset = decode_int(buffer, offset)
            beta, offset = decode_int(buffer, offset)
            eps_flag, offset = decode_int(buffer, offset)
            ct_row.append(ct)
            blinding_row.append(
                CellBlinding(alpha=alpha, beta=beta, epsilon=1 if eps_flag else -1)
            )
        matrix.append(tuple(ct_row))
        blindings.append(tuple(blinding_row))
    _check_consumed(buffer, offset, "shard phase-1 request")
    return ShardPhase1Request(
        round_id=round_id,
        su_id=su_id,
        shard_id=shard_id,
        columns=columns,
        blocks=blocks,
        matrix=tuple(matrix),
        blindings=tuple(blindings),
        fence_token=fence_token,
    )


def encode_phase1_response(response: ShardPhase1Response) -> bytes:
    parts = [
        encode_str(response.round_id),
        encode_str(response.shard_id),
        _encode_ints(response.columns),
        encode_int(len(response.matrix)),
        encode_int(len(response.matrix[0]) if response.matrix else 0),
    ]
    for row in response.matrix:
        parts.extend(encode_ciphertext(ct) for ct in row)
    return b"".join(parts)


def decode_phase1_response(
    buffer: bytes, public_key: PaillierPublicKey
) -> ShardPhase1Response:
    round_id, offset = decode_str(buffer, 0)
    shard_id, offset = decode_str(buffer, offset)
    columns, offset = _decode_ints(buffer, offset)
    n_rows, n_cols, offset = _decode_shape(
        buffer, offset, columns, "shard phase-1 response"
    )
    matrix = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            ct, offset = decode_ciphertext(buffer, public_key, offset)
            row.append(ct)
        matrix.append(tuple(row))
    _check_consumed(buffer, offset, "shard phase-1 response")
    return ShardPhase1Response(
        round_id=round_id, shard_id=shard_id, columns=columns, matrix=tuple(matrix)
    )


# -- control frames ---------------------------------------------------------------


def encode_control(obj: dict, *attachments: bytes) -> bytes:
    """A JSON control header plus ordered binary attachments."""
    payload = encode_bytes(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return payload + b"".join(encode_bytes(blob) for blob in attachments)


def decode_control(
    payload: bytes, num_attachments: int | None = 0
) -> tuple[dict, list[bytes]]:
    """Header plus exactly ``num_attachments`` blobs (``None``: however
    many follow — for frames whose header says how many to expect)."""
    raw, offset = decode_bytes(payload, 0)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"malformed control frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise SerializationError("control frame header must be a JSON object")
    attachments = []
    while (
        offset < len(payload)
        if num_attachments is None
        else len(attachments) < num_attachments
    ):
        blob, offset = decode_bytes(payload, offset)
        attachments.append(blob)
    _check_consumed(payload, offset, "control frame")
    return obj, attachments


# -- a shard's cell table ----------------------------------------------------------


def encode_cells(table: CellTable) -> dict:
    """The bootstrap header's ``cells`` value: the table's fields, ``e`` as rows."""
    return {
        "num_channels": table.num_channels,
        "num_blocks": table.num_blocks,
        "delta": table.delta,
        "e": [list(row) for row in table.e],
    }


def _is_int(value) -> bool:
    return type(value) is int  # JSON's true/false decode to bool, a subclass


def decode_cells(obj) -> CellTable:
    """:func:`encode_cells` back, refusing any shape the kernel could misread:
    sizes and ``Δ`` positive ints, ``num_channels`` rows of ``num_blocks`` ints."""
    if not isinstance(obj, dict):
        raise SerializationError("cell table must be a JSON object")
    sizes = [obj.get(name) for name in ("num_channels", "num_blocks", "delta")]
    if not all(_is_int(size) and size > 0 for size in sizes):
        raise SerializationError(f"cell table sizes and Δ must be positive ints, got {sizes}")
    num_channels, num_blocks, delta = sizes
    rows = obj.get("e")
    if not isinstance(rows, list) or len(rows) != num_channels:
        raise SerializationError(f"cell table needs {num_channels} rows of E")
    for row in rows:
        if not isinstance(row, list) or len(row) != num_blocks:
            raise SerializationError(f"cell table rows must be {num_blocks} cells wide")
        if not all(_is_int(value) for value in row):
            raise SerializationError("cell table entries must be ints")
    return CellTable(num_channels, num_blocks, delta, tuple(tuple(row) for row in rows))


# -- batched nonce draws ----------------------------------------------------------
#
# One ``rand_exponents`` frame asks the authority for ``count`` Paillier
# nonces of ``NONCE_EXPONENT_BITS`` each.  The count is bounded before any
# draw happens: a peer cannot hold the dispatch lock for an unbounded batch.

#: Most nonces one frame may ask for; larger batches take several frames.
MAX_EXPONENTS_PER_FRAME = 1 << 16
#: Widest single ``rand`` draw the authority serves (4x a paper-strength key).
MAX_RAND_BITS = 8192


def encode_exponents_request(count: int) -> bytes:
    return encode_int(count)


def decode_exponents_request(payload: bytes) -> int:
    """The ``count`` of a ``rand_exponents`` request, range-checked."""
    count, offset = decode_int(payload, 0)
    _check_consumed(payload, offset, "rand_exponents request")
    if not 1 <= count <= MAX_EXPONENTS_PER_FRAME:
        raise SerializationError(f"rand_exponents count {count} is out of range")
    return count


def encode_exponents_response(exponents: list[int]) -> bytes:
    return _encode_ints(exponents)


def decode_exponents_response(payload: bytes, count: int) -> tuple[int, ...]:
    exponents, offset = _decode_ints(payload, 0)
    _check_consumed(payload, offset, "rand_exponents response")
    if len(exponents) != count:
        raise SerializationError(
            f"rand_exponents response carries {len(exponents)} nonces, asked for {count}"
        )
    if any(s.bit_length() > NONCE_EXPONENT_BITS for s in exponents):
        raise SerializationError("rand_exponents response carries an over-wide nonce")
    return exponents


# -- typed remote errors ----------------------------------------------------------


def encode_error(exc: BaseException) -> bytes:
    """Serialise an exception for an ``err`` frame."""
    return encode_control({"error": type(exc).__name__, "message": str(exc)})


def decode_error(payload: bytes) -> tuple[str, str]:
    obj, _ = decode_control(payload)
    return str(obj.get("error", "TransportError")), str(obj.get("message", ""))


def raise_remote_error(payload: bytes, peer: str) -> None:
    """Re-raise a worker-side failure under its original typed class.

    Unknown names (a worker running newer code, a non-Repro exception)
    degrade to :class:`~repro.errors.TransportError` rather than being
    swallowed.
    """
    name, message = decode_error(payload)
    exc_type = getattr(errors_module, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        raise exc_type(f"{peer}: {message}")
    raise TransportError(f"{peer} failed with {name}: {message}")
