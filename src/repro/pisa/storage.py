"""Durable state for the PISA servers.

An SDC restart must not lose the encrypted PU state: the budget matrix
is derived from every PU's *latest* update, and PUs only re-send when
they switch channels — after a crash the SDC would otherwise grant
against a budget missing every active receiver (an unsafe failure).

What needs persisting is deliberately small:

* **SDC shard** (the one ``PISA-SHARD-STATE-v1`` blob): identity,
  committed epoch, owned blocks and the latest
  :class:`~repro.pisa.messages.PUUpdateMessage` per PU (ciphertexts —
  the SDC stores nothing it can read).  Pending request rounds are
  *not* persisted: they hold one-time blinding factors, and replaying
  half-finished rounds after a crash is exactly the replay surface we
  refuse; SUs simply re-request.
* **Key directory**: SU public keys and issuer verification keys.

Snapshots are canonical bytes (versioned, self-describing), restored by
replaying updates through the normal ``handle_pu_update`` path so the
incremental aggregate is rebuilt by the same audited code that built it.

Durable copies go through the CRC frame helpers (:func:`frame_payload`
/ :func:`unframe_payload`): a truncated or bit-flipped value surfaces as
a typed :class:`~repro.errors.IntegrityError` instead of garbage state.
The state store (:mod:`repro.store`) seals every value with them and the
write-ahead epoch journal (:mod:`repro.resilience.journal`) frames its
records with them, so one decoder audits both formats.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

from repro.crypto.serialization import (
    decode_bytes,
    decode_int,
    decode_public_key,
    decode_str,
    encode_bytes,
    encode_int,
    encode_public_key,
    encode_str,
)
from repro.crypto.signatures import RsaPublicKey
from repro.errors import IntegrityError, SerializationError
from repro.pisa.keys import KeyDirectory
from repro.pisa.messages import PUUpdateMessage

__all__ = [
    "encode_shard_state",
    "decode_shard_state",
    "serialize_shard_state",
    "restore_shard_state",
    "serialize_directory",
    "restore_directory",
    "frame_payload",
    "unframe_payload",
]

_SHARD_MAGIC = b"PISA-SHARD-STATE-v1"
_DIR_MAGIC = b"PISA-DIRECTORY-v1"

#: Two-byte marker opening every CRC frame.
FRAME_MAGIC = b"PF"
#: Fixed framing overhead: magic + 4-byte length prefix + 4-byte CRC32.
FRAME_OVERHEAD = len(FRAME_MAGIC) + 4 + 4


def frame_payload(payload: bytes) -> bytes:
    """Wrap ``payload`` in a self-checking frame: magic, length, CRC32."""
    return (
        FRAME_MAGIC
        + encode_bytes(payload)
        + zlib.crc32(payload).to_bytes(4, "big")
    )


def unframe_payload(buffer: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode one frame at ``offset``; returns ``(payload, next_offset)``.

    Raises :class:`~repro.errors.IntegrityError` on a wrong magic, a
    truncated frame, or a CRC mismatch — the caller never sees partial
    or corrupted payload bytes.
    """
    end_magic = offset + len(FRAME_MAGIC)
    if buffer[offset:end_magic] != FRAME_MAGIC:
        raise IntegrityError(f"bad frame magic at offset {offset}")
    try:
        payload, offset = decode_bytes(buffer, end_magic)
    except SerializationError as exc:
        raise IntegrityError(f"truncated frame: {exc}") from exc
    if offset + 4 > len(buffer):
        raise IntegrityError("truncated frame checksum")
    expected = int.from_bytes(buffer[offset : offset + 4], "big")
    if zlib.crc32(payload) != expected:
        raise IntegrityError("frame checksum mismatch")
    return payload, offset + 4


def encode_shard_state(
    shard_id: str, epoch: int, blocks: Sequence[int], updates: Iterable[bytes]
) -> bytes:
    """The ``PISA-SHARD-STATE-v1`` blob: an epoch snapshot, a shard
    worker's bootstrap, or the live view a rebuild folds over a snapshot.

    ``updates`` are ``PUUpdateMessage.to_bytes()`` payloads, latest per
    PU, in PU-id order.
    """
    updates = tuple(updates)
    parts = [
        _SHARD_MAGIC,
        encode_str(shard_id),
        # Epochs start at −1 (nothing committed); store shifted by one
        # because the wire integers are non-negative.
        encode_int(epoch + 1),
        encode_int(len(blocks)),
    ]
    parts.extend(encode_int(block) for block in blocks)
    parts.append(encode_int(len(updates)))
    parts.extend(encode_bytes(raw) for raw in updates)
    return b"".join(parts)


def decode_shard_state(
    blob: bytes,
) -> tuple[str, int, tuple[int, ...], tuple[bytes, ...]]:
    """``(shard_id, epoch, blocks, raw updates)`` of a shard-state blob."""
    if not blob.startswith(_SHARD_MAGIC):
        raise SerializationError("not a v1 shard snapshot")
    shard_id, offset = decode_str(blob, len(_SHARD_MAGIC))
    epoch_plus_one, offset = decode_int(blob, offset)
    block_count, offset = decode_int(blob, offset)
    blocks = []
    for _ in range(block_count):
        block, offset = decode_int(blob, offset)
        blocks.append(block)
    update_count, offset = decode_int(blob, offset)
    updates = []
    for _ in range(update_count):
        raw, offset = decode_bytes(blob, offset)
        updates.append(raw)
    if offset != len(blob):
        raise SerializationError("trailing bytes in shard snapshot")
    return shard_id, epoch_plus_one - 1, tuple(blocks), tuple(updates)


def serialize_shard_state(shard) -> bytes:
    """Snapshot one SDC shard: identity, committed epoch, blocks, PU state.

    Taken at epoch commit, this is everything a promoted replica needs to
    resume serving the shard's block partition from the last committed
    epoch: the ownership set (so routing agrees with the ring) and the
    latest encrypted update per PU (ciphertexts only — a snapshot leaks
    no more than the shard it describes).
    """
    return encode_shard_state(
        shard.shard_id,
        shard.last_committed_epoch,
        shard.blocks,
        (message.to_bytes() for message in shard.pu_update_messages()),
    )


def restore_shard_state(shard, blob: bytes) -> int:
    """Replay a shard snapshot into a freshly constructed, empty shard.

    The target must share the original's environment and group key and
    hold no PU state yet; block ownership is *replaced* by the
    snapshot's.  Returns the restored ``last_committed_epoch``.
    """
    if shard.num_tracked_pus:
        raise SerializationError("restore target already holds PU state")
    shard_id, epoch, blocks, updates = decode_shard_state(blob)
    if shard_id != shard.shard_id:
        raise SerializationError(
            f"snapshot is for shard {shard_id!r}, not {shard.shard_id!r}"
        )
    shard.release_blocks(shard.blocks)
    shard.assign_blocks(blocks)
    for raw in updates:
        shard.handle_pu_update(
            PUUpdateMessage.from_bytes(raw, shard.group_public_key)
        )
    if epoch > shard.last_committed_epoch:
        shard.commit_epoch(epoch)
    return epoch


def serialize_directory(directory: KeyDirectory) -> bytes:
    """Snapshot the public key directory (group, SU, and issuer keys)."""
    parts = [
        _DIR_MAGIC,
        encode_bytes(encode_public_key(directory.group_public_key)),
        encode_int(len(directory._su_keys)),
    ]
    for su_id, public_key in sorted(directory._su_keys.items()):
        parts.append(encode_str(su_id))
        parts.append(encode_bytes(encode_public_key(public_key)))
    parts.append(encode_int(len(directory._signing_keys)))
    for issuer_id, key in sorted(directory._signing_keys.items()):
        parts.append(encode_str(issuer_id))
        parts.append(encode_int(key.n))
        parts.append(encode_int(key.e))
    return b"".join(parts)


def restore_directory(blob: bytes) -> KeyDirectory:
    """Rebuild a key directory from a snapshot."""
    if not blob.startswith(_DIR_MAGIC):
        raise SerializationError("not a v1 directory snapshot")
    offset = len(_DIR_MAGIC)
    group_raw, offset = decode_bytes(blob, offset)
    directory = KeyDirectory(decode_public_key(group_raw))
    su_count, offset = decode_int(blob, offset)
    for _ in range(su_count):
        su_id, offset = decode_str(blob, offset)
        key_raw, offset = decode_bytes(blob, offset)
        directory.register_su_key(su_id, decode_public_key(key_raw))
    issuer_count, offset = decode_int(blob, offset)
    for _ in range(issuer_count):
        issuer_id, offset = decode_str(blob, offset)
        n, offset = decode_int(blob, offset)
        e, offset = decode_int(blob, offset)
        directory.register_signing_key(issuer_id, RsaPublicKey(n=n, e=e))
    if offset != len(blob):
        raise SerializationError("trailing bytes in directory snapshot")
    return directory
