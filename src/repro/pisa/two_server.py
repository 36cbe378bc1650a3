"""PISA without an STP — the paper's §VII future-work variant.

The original design trusts the STP with the *entire* group secret key:
an STP compromise silently decrypts every PU update and SU request.
This variant removes that single point of failure by splitting the
decryption exponent between two non-colluding servers
(:class:`FrontServer`, the SDC proper, and :class:`BackendServer`, a
lightweight co-server) using
:mod:`repro.crypto.threshold`:

* **setup** — a dealer generates the shared key; the front server gets
  share ``d₁``, the backend ``d₂``.  Neither can decrypt anything alone.
* **PU updates / SU requests** — byte-identical to baseline PISA (same
  clients, same messages, same ``pk_G`` encryption).
* **sign extraction** — the front server blinds the indicators exactly
  as eq. (14), *additionally* attaches its partial decryptions
  ``Ṽ^{d₁}``, and sends both to the backend.  The backend computes its
  own partials, combines, sees only the blinded values ``V`` (protected
  by α/β/ε exactly as the STP was), extracts signs (eq. (15)), and
  returns them encrypted under the SU's key.  The front unblinds and
  issues the license as before (eqs. (16)/(17)).  The backend is the
  STP's :class:`~repro.pisa.stp_server.SignConverter` opening a
  ciphertext by combining two partials; both servers keep the
  baseline's method names.

Compared to the STP design: the same two communication legs and the
same per-cell work at the conversion server (one exponentiation + one
encryption), plus one partial-decryption exponentiation per cell at the
front — the price of eliminating the key-escrow party.  The ablation
benchmark ``bench_two_server.py`` quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.crypto.parallel import Executor
from repro.crypto.rand import RandomSource
from repro.crypto.serialization import encode_ciphertext_matrix, encode_int
from repro.crypto.threshold import (
    DecryptionShare,
    PartialDecryption,
    ThresholdKeypair,
    combine_partials,
    generate_threshold_keypair,
)
from repro.errors import ProtocolError, SerializationError
from repro.pisa.keys import KeyDirectory
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.sdc_server import SdcServer
from repro.pisa.stp_server import SignConverter

__all__ = [
    "PartialSignExtractionRequest",
    "FrontServer",
    "BackendServer",
    "deal_two_server_keys",
]


@dataclass(frozen=True)
class PartialSignExtractionRequest:
    """Front → backend: blinded indicators plus the front's partials.

    ``partials[c][k]`` is ``matrix[c][k].ciphertext ** d₁ mod n²``.
    """

    round_id: str
    su_id: str
    matrix: tuple[tuple[EncryptedNumber, ...], ...]
    partials: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.partials) != len(self.matrix) or any(
            len(p_row) != len(m_row)
            for p_row, m_row in zip(self.partials, self.matrix)
        ):
            raise SerializationError("partials shape must match the matrix")

    def to_bytes(self) -> bytes:
        from repro.crypto.serialization import encode_bytes

        parts = [
            encode_bytes(self.round_id.encode("utf-8")),
            encode_bytes(self.su_id.encode("utf-8")),
            encode_ciphertext_matrix(self.matrix),
        ]
        for row in self.partials:
            parts.extend(encode_int(value) for value in row)
        return b"".join(parts)

    def wire_size(self) -> int:
        return len(self.to_bytes())


def deal_two_server_keys(
    key_bits: int = 2048, rng: RandomSource | None = None
) -> tuple[ThresholdKeypair, KeyDirectory]:
    """Dealer setup: shared group key + a public key directory."""
    keypair = generate_threshold_keypair(key_bits, num_shares=2, rng=rng)
    return keypair, KeyDirectory(keypair.public_key)


class FrontServer(SdcServer):
    """The SDC of the two-server variant: all of baseline PISA's logic
    plus share ``d₁`` partial decryptions on the outgoing Ṽ matrix."""

    def __init__(self, share: DecryptionShare, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if share.public_key != self.group_public_key:
            raise ProtocolError("share does not match the directory's group key")
        self._share = share

    def start_request(self, request, span=None) -> PartialSignExtractionRequest:
        """Eq. (14) blinding + the front's threshold partials.

        The ``Ṽ^{d₁}`` exponentiations are independent per cell, so they
        ship to the executor as one batch.
        """
        extraction = super().start_request(request, span=span)
        jobs = [
            (ct.ciphertext, self._share.exponent, self.group_public_key.n_sq)
            for row in extraction.matrix
            for ct in row
        ]
        powers = iter(self._executor.pow_many(jobs))
        partials = tuple(
            tuple(next(powers) for _ in row) for row in extraction.matrix
        )
        return PartialSignExtractionRequest(
            round_id=extraction.round_id,
            su_id=extraction.su_id,
            matrix=extraction.matrix,
            partials=partials,
        )


class BackendServer(SignConverter):
    """The lightweight co-server replacing the STP.

    Holds share ``d₂`` and the public directory.  Unlike the STP it
    *cannot* decrypt protocol traffic on its own — it only completes
    decryptions the front server has already half-opened, which by
    protocol are always the blinded ``Ṽ`` values.
    """

    def __init__(
        self,
        share: DecryptionShare,
        directory: KeyDirectory,
        rng: RandomSource | None = None,
        executor: Executor | None = None,
    ) -> None:
        if share.public_key != directory.group_public_key:
            raise ProtocolError("share does not match the directory's group key")
        super().__init__(directory, rng=rng, executor=executor)
        self._share = share

    def _open_jobs(self, ciphertext: int):
        return ((ciphertext, self._share.exponent, self.group_public_key.n_sq),)

    def _open(self, request: PartialSignExtractionRequest, powers: list[int]):
        """Combine the front's ``Ṽ^{d₁}`` with this share's ``Ṽ^{d₂}``."""
        pk = self.group_public_key
        own, front = self._share.index, 1 - self._share.index
        front_partials = (value for row in request.partials for value in row)
        return [
            (
                combine_partials(
                    pk, [PartialDecryption(front, theirs), PartialDecryption(own, ours)]
                ),
            )
            for theirs, ours in zip(front_partials, powers)
        ]


class TwoServerCoordinator(PisaCoordinator):
    """Deploys and drives the STP-free variant end to end.

    A :class:`repro.pisa.protocol.PisaCoordinator` — same clients, same
    message flow, same round driver, same endpoint names — whose build
    hooks put the front/backend threshold pair where the SDC and the STP
    sit.
    """

    def _build_stp(self, key_bits: int, executor) -> BackendServer:
        keypair, directory = deal_two_server_keys(key_bits, rng=self._rng)
        self._front_share = keypair.shares[0]
        return BackendServer(
            keypair.shares[1], directory, rng=self._rng, executor=executor
        )

    def _build_sdc(self, signer, executor) -> FrontServer:
        return FrontServer(
            self._front_share,
            self.environment,
            directory=self.stp.directory,
            signer=signer,
            rng=self._rng,
            executor=executor,
        )

    @property
    def front(self) -> FrontServer:
        return self.sdc

    @property
    def backend(self) -> BackendServer:
        return self.stp

    @property
    def group_public_key(self) -> PaillierPublicKey:
        return self.stp.group_public_key


__all__.append("TwoServerCoordinator")
