"""Typed PISA protocol messages with byte-exact wire encodings.

Five message types cover the two flows of Figures 4 and 5:

========================  =======================  ==========================
Message                   Direction                Payload
========================  =======================  ==========================
:class:`PUUpdateMessage`  PU → SDC                 C ciphertexts ``W̃(·, i)``
:class:`SURequestMessage` SU → SDC                 C × B' ciphertexts ``F̃``
:class:`SignExtractionRequest`   SDC → STP         C × B' ciphertexts ``Ṽ``
:class:`SignExtractionResponse`  STP → SDC         C × B' ciphertexts ``X̃``
:class:`LicenseResponse`  SDC → SU                 license + one ciphertext
========================  =======================  ==========================

All ciphertext payloads serialise via
:mod:`repro.crypto.serialization`; ``wire_size()`` is the exact byte
count that the communication-overhead evaluation (§VI-A) accounts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.crypto.serialization import (
    decode_bytes,
    decode_ciphertext,
    decode_ciphertext_matrix,
    decode_int,
    decode_str,
    encode_bytes,
    encode_ciphertext,
    encode_ciphertext_matrix,
    encode_int,
    encode_str,
)
from repro.errors import SerializationError
from repro.pisa.license import TransmissionLicense

__all__ = [
    "PUUpdateMessage",
    "SURequestMessage",
    "SignExtractionRequest",
    "SignExtractionResponse",
    "LicenseResponse",
]


@dataclass(frozen=True)
class PUUpdateMessage:
    """Figure 4: a PU's encrypted channel-reception update.

    The PU's *location* (block index) is public/registered (§III-D), so
    it travels in the clear; the per-channel entries ``W̃(c, i)`` are
    ciphertexts under ``pk_G``.  Size grows linearly with the number of
    channels and is independent of the number of blocks — the §VI-A
    "≈0.05 MB" property.
    """

    pu_id: str
    block_index: int
    ciphertexts: tuple[EncryptedNumber, ...]

    def to_bytes(self) -> bytes:
        parts = [encode_str(self.pu_id), encode_int(self.block_index),
                 encode_int(len(self.ciphertexts))]
        parts.extend(encode_ciphertext(ct) for ct in self.ciphertexts)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buffer: bytes, public_key: PaillierPublicKey) -> "PUUpdateMessage":
        pu_id, offset = decode_str(buffer, 0)
        block_index, offset = decode_int(buffer, offset)
        count, offset = decode_int(buffer, offset)
        cts = []
        for _ in range(count):
            ct, offset = decode_ciphertext(buffer, public_key, offset)
            cts.append(ct)
        if offset != len(buffer):
            raise SerializationError("trailing bytes in PU update")
        return cls(pu_id=pu_id, block_index=block_index, ciphertexts=tuple(cts))

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class SURequestMessage:
    """Figure 5 step 2: the SU's encrypted transmission request.

    ``matrix[c][k]`` is ``F̃(c, region_blocks[k])`` — C rows over the
    *disclosed* blocks only (the §VI-A privacy/size trade-off; full
    privacy means ``region_blocks`` covers the whole grid).
    """

    su_id: str
    region_blocks: tuple[int, ...]
    matrix: tuple[tuple[EncryptedNumber, ...], ...]

    def __post_init__(self) -> None:
        for row in self.matrix:
            if len(row) != len(self.region_blocks):
                raise SerializationError("request row width != disclosed block count")

    @property
    def num_channels(self) -> int:
        return len(self.matrix)

    def to_bytes(self) -> bytes:
        parts = [encode_str(self.su_id), encode_int(len(self.region_blocks))]
        parts.extend(encode_int(b) for b in self.region_blocks)
        parts.append(encode_ciphertext_matrix(self.matrix))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buffer: bytes, public_key: PaillierPublicKey) -> "SURequestMessage":
        su_id, offset = decode_str(buffer, 0)
        count, offset = decode_int(buffer, offset)
        blocks = []
        for _ in range(count):
            block, offset = decode_int(buffer, offset)
            blocks.append(block)
        matrix, offset = decode_ciphertext_matrix(buffer, public_key, offset)
        if offset != len(buffer):
            raise SerializationError("trailing bytes in SU request")
        return cls(
            su_id=su_id,
            region_blocks=tuple(blocks),
            matrix=tuple(tuple(row) for row in matrix),
        )

    def wire_size(self) -> int:
        return len(self.to_bytes())

    def digest_bytes(self) -> bytes:
        """The bytes the license's request commitment hashes over."""
        return self.to_bytes()


@dataclass(frozen=True)
class SignExtractionRequest:
    """Figure 5 step 5: blinded indicators ``Ṽ`` forwarded SDC → STP."""

    round_id: str
    su_id: str
    matrix: tuple[tuple[EncryptedNumber, ...], ...]

    def to_bytes(self) -> bytes:
        return b"".join(
            [encode_str(self.round_id), encode_str(self.su_id),
             encode_ciphertext_matrix(self.matrix)]
        )

    @classmethod
    def from_bytes(
        cls, buffer: bytes, public_key: PaillierPublicKey
    ) -> "SignExtractionRequest":
        round_id, offset = decode_str(buffer, 0)
        su_id, offset = decode_str(buffer, offset)
        matrix, offset = decode_ciphertext_matrix(buffer, public_key, offset)
        if offset != len(buffer):
            raise SerializationError("trailing bytes in sign-extraction request")
        return cls(round_id=round_id, su_id=su_id,
                   matrix=tuple(tuple(row) for row in matrix))

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class SignExtractionResponse:
    """Figure 5 step 8: key-converted signs ``X̃`` under the SU's key."""

    round_id: str
    su_id: str
    matrix: tuple[tuple[EncryptedNumber, ...], ...]

    def to_bytes(self) -> bytes:
        return b"".join(
            [encode_str(self.round_id), encode_str(self.su_id),
             encode_ciphertext_matrix(self.matrix)]
        )

    @classmethod
    def from_bytes(
        cls, buffer: bytes, su_public_key: PaillierPublicKey
    ) -> "SignExtractionResponse":
        round_id, offset = decode_str(buffer, 0)
        su_id, offset = decode_str(buffer, offset)
        matrix, offset = decode_ciphertext_matrix(buffer, su_public_key, offset)
        if offset != len(buffer):
            raise SerializationError("trailing bytes in sign-extraction response")
        return cls(round_id=round_id, su_id=su_id,
                   matrix=tuple(tuple(row) for row in matrix))

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class LicenseResponse:
    """Figure 5 step 11: the license plus ``G̃^{pk_j}`` back to the SU.

    The response is sent whether or not permission is granted; only an
    SU holding ``sk_j`` learns the outcome, by checking whether the
    decrypted value is a valid signature over the license body.  One
    ciphertext ≈ 4.1 kb at n = 2048 — the §VI-A response size.
    """

    license: TransmissionLicense
    encrypted_signature: EncryptedNumber

    def to_bytes(self) -> bytes:
        return b"".join(
            [encode_bytes(self.license.to_bytes()),
             encode_ciphertext(self.encrypted_signature)]
        )

    @classmethod
    def from_bytes(
        cls, buffer: bytes, su_public_key: PaillierPublicKey
    ) -> "LicenseResponse":
        license_raw, offset = decode_bytes(buffer, 0)
        ct, offset = decode_ciphertext(buffer, su_public_key, offset)
        if offset != len(buffer):
            raise SerializationError("trailing bytes in license response")
        return cls(
            license=TransmissionLicense.from_bytes(license_raw),
            encrypted_signature=ct,
        )

    def wire_size(self) -> int:
        return len(self.to_bytes())
