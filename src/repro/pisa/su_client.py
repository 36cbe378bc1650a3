"""SU-side client (Figure 5, steps 1-2 and the final decryption).

The secondary user computes its interference footprint
``F_j(c, i) = S^SU_{c,j} · h(d^c_{i,j})`` (eq. (5)) over the blocks it is
willing to disclose, encrypts every entry under the group key, and sends
the matrix as its transmission request.  When the license response comes
back it decrypts ``G̃^{pk_j}`` with its personal secret key and learns —
alone among all parties — whether transmission is permitted, by checking
the decrypted integer against the license signature.

Also implemented:

* request *re-randomisation* (§VI-A): multiplying each cached ciphertext
  by a fresh obfuscator ``h_n^s`` makes a re-submission unlinkable at
  roughly the cost of one homomorphic addition per entry instead of a
  fresh encryption;
* the *location privacy vs time* trade-off: a
  :class:`~repro.geo.region.PrivacyRegion` shrinks the encrypted matrix
  to the disclosed blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.paillier import ObfuscatorPool, PaillierKeypair, PaillierPublicKey
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import ProtocolError
from repro.geo.region import PrivacyRegion
from repro.pisa.keys import KeyDirectory
from repro.pisa.license import TransmissionLicense
from repro.pisa.messages import LicenseResponse, SURequestMessage
from repro.watch.entities import SUTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.matrices import su_request_matrix

__all__ = ["SUClient", "RequestOutcome"]


@dataclass(frozen=True)
class RequestOutcome:
    """What the SU learns from a license response."""

    granted: bool
    license: TransmissionLicense
    #: The decrypted integer; equals the valid signature iff granted.
    decrypted_value: int


class SUClient:
    """The secondary user's protocol agent.

    Parameters
    ----------
    su:
        Private operation data (block, EIRP parameters).
    environment:
        Shared public substrate.
    group_public_key:
        ``pk_G`` from the key directory.
    keypair:
        The SU's personal Paillier keypair ``(pk_j, sk_j)``; the public
        half must be registered with the STP's directory.
    region:
        Disclosed privacy region; ``None`` = full location privacy.
    """

    def __init__(
        self,
        su: SUTransmitter,
        environment: SpectrumEnvironment,
        group_public_key: PaillierPublicKey,
        keypair: PaillierKeypair,
        region: PrivacyRegion | None = None,
        rng: RandomSource | None = None,
    ) -> None:
        self.su = su
        self.environment = environment
        self.group_public_key = group_public_key
        self.keypair = keypair
        self.region = region if region is not None else PrivacyRegion.full(environment.grid)
        self._rng = default_rng(rng)
        self._cached_request: SURequestMessage | None = None
        self._obfuscators = ObfuscatorPool(group_public_key, rng=self._rng)
        if not self.region.contains(su.block_index):
            raise ProtocolError("the disclosed region must contain the SU's block")

    @property
    def su_id(self) -> str:
        return self.su.su_id

    @property
    def public_key(self) -> PaillierPublicKey:
        """``pk_j`` — register this with the STP's key directory."""
        return self.keypair.public_key

    # -- request preparation (steps 1-2) -----------------------------------------

    def prepare_request(self, channels: Sequence[int] | None = None) -> SURequestMessage:
        """Compute eq. (5) and encrypt the region's entries under ``pk_G``.

        This is the §VI-A "≈221 s at full scale" phase; the result is
        cached so later rounds can re-randomise instead of re-encrypting.
        Each cell's obfuscator comes from the pool, so a
        preparation over a stocked pool costs one multiplication per
        cell; otherwise the pool is first topped up to one request's
        worth in one batch, from the same draws, and the bytes are the
        same either way.
        """
        env = self.environment
        f_matrix = su_request_matrix(
            self.su,
            env.grid,
            env.params,
            pathloss_for_channel=lambda c: env.su_pathloss_for(self.su, c),
            exclusion_distance_for_channel=env.exclusion_distance,
            region=self.region,
            channels=channels,
        )
        blocks = tuple(self.region.sorted_indices())
        self._obfuscators.ensure(self._ciphertexts_per_request())
        matrix = tuple(
            tuple(
                self.group_public_key.encrypt_with_obfuscator(
                    int(f_matrix[c, b]), self._obfuscators.take()
                )
                for b in blocks
            )
            for c in range(env.num_channels)
        )
        self._cached_request = SURequestMessage(
            su_id=self.su.su_id, region_blocks=blocks, matrix=matrix
        )
        return self._cached_request

    def precompute_refresh_material(self, rounds: int = 1, executor=None) -> None:
        """Offline phase of the §VI-A refresh: stock ``rounds`` requests' obfuscators.

        Call during idle time, before the first :meth:`prepare_request`
        too; each later preparation or :meth:`refresh_request` then costs
        one modular multiplication per ciphertext (the paper's "same
        amount of time as homomorphic addition").  The pool draws its
        nonces in the order the ciphertexts would, so stocking changes no
        byte.  An executor parallelises the stocking exponentiations.
        """
        self._obfuscators.ensure(rounds * self._ciphertexts_per_request(), executor=executor)

    def _ciphertexts_per_request(self) -> int:
        """Ciphertexts in one request: every channel × the disclosed blocks."""
        return self.environment.num_channels * len(self.region)

    def refresh_request(self) -> SURequestMessage:
        """Re-randomise the cached request (§VI-A fast path).

        Each ciphertext is multiplied by a pooled ``h_n^s``: the
        plaintext operation parameters are unchanged but the request is
        cryptographically unlinkable to previous submissions.  Over a
        pool stocked via :meth:`precompute_refresh_material` that is one
        multiplication per ciphertext, ≈20x cheaper than fresh
        encryption; otherwise the pool computes the request's factors
        first, in one batch, and the refresh costs about as much as
        encrypting anew.
        """
        if self._cached_request is None:
            raise ProtocolError("no cached request; call prepare_request first")
        self._obfuscators.ensure(self._ciphertexts_per_request())
        refreshed = tuple(
            tuple(ct.rerandomize_with(self._obfuscators.take()) for ct in row)
            for row in self._cached_request.matrix
        )
        self._cached_request = SURequestMessage(
            su_id=self._cached_request.su_id,
            region_blocks=self._cached_request.region_blocks,
            matrix=refreshed,
        )
        return self._cached_request

    # -- response handling (step 12, after Figure 5) --------------------------------

    def process_response(
        self, response: LicenseResponse, directory: KeyDirectory
    ) -> RequestOutcome:
        """Decrypt ``G̃`` and decide whether transmission is permitted.

        Validates that the license names this SU and commits to the
        request we actually sent, then checks the decrypted integer
        against the license signature with the issuer's public key.
        """
        license_body = response.license
        if license_body.su_id != self.su.su_id:
            raise ProtocolError("license issued to a different SU")
        if self._cached_request is not None:
            expected = TransmissionLicense.digest_of(self._cached_request.digest_bytes())
            if license_body.request_digest != expected:
                raise ProtocolError("license does not commit to our request")
        if response.encrypted_signature.public_key != self.keypair.public_key:
            raise ProtocolError("response encrypted under a key that is not ours")
        from repro.crypto.signatures import RsaFdhVerifier

        decrypted = self.keypair.private_key.raw_decrypt(
            response.encrypted_signature.ciphertext
        )
        verifier = RsaFdhVerifier(directory.signing_key(license_body.issuer_id))
        granted = license_body.verify(verifier, decrypted)
        return RequestOutcome(
            granted=granted, license=license_body, decrypted_value=decrypted
        )
