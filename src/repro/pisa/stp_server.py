"""The Semi-trusted Third Party (Figure 5, steps 6-8).

The STP is the only holder of the group secret key ``sk_G``.  Its entire
protocol role is the *key-conversion* service: decrypt each blinded
indicator ``Ṽ(c,i)``, reduce it to a sign

.. math::

    X(c,i) = \\begin{cases} 1 & V(c,i) > 0 \\\\ -1 & V(c,i) \\le 0 \\end{cases}

(eq. (15)), and re-encrypt the sign under the requesting SU's personal
public key ``pk_j``.  Because the SDC multiplied in per-cell one-time
``α, β`` and a sign coin ``ε``, the decrypted values give the STP no
usable information about the interference indicators (Lemma V.1's
non-collusion assumption).

The STP also operates the public :class:`~repro.pisa.keys.KeyDirectory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.encoding import decode_signed
from repro.crypto.paillier import (
    PaillierKeypair,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.parallel import Executor, default_executor
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import ProtocolError
from repro.pisa.keys import KeyDirectory
from repro.pisa.messages import SignExtractionRequest, SignExtractionResponse

__all__ = ["StpServer", "StpStats", "MAX_STOCKED_SUS"]

#: How many SUs' next-request nonces the STP holds at once.  Past it the
#: SU that requested longest ago loses its stock and draws inline again.
MAX_STOCKED_SUS = 32


@dataclass
class StpStats:
    """Operation counters for the evaluation harness."""

    conversions: int = 0
    cells_decrypted: int = 0
    cells_encrypted: int = 0


class StpServer:
    """Key authority + sign-extraction/key-conversion service."""

    def __init__(
        self,
        group_keypair: PaillierKeypair | None = None,
        key_bits: int = 2048,
        rng: RandomSource | None = None,
        executor: Executor | None = None,
    ) -> None:
        self._rng = default_rng(rng)
        self._executor = default_executor(executor)
        self._keypair = group_keypair or generate_keypair(key_bits, rng=self._rng)
        self.directory = KeyDirectory(self._keypair.public_key)
        self.stats = StpStats()
        #: Per SU, the re-encryption nonces drawn for its next request,
        #: in draw order; SUs in request order, oldest first.
        self._stock: dict[str, list[int]] = {}

    @property
    def group_public_key(self) -> PaillierPublicKey:
        """``pk_G`` — published; the secret half never leaves this object."""
        return self._keypair.public_key

    def register_su(self, su_id: str, public_key: PaillierPublicKey) -> None:
        """Accept an SU's ``pk_i`` upload (§III-C)."""
        self.directory.register_su_key(su_id, public_key)

    # -- the key-conversion service --------------------------------------------

    def handle_sign_extraction(
        self, request: SignExtractionRequest, span=None
    ) -> SignExtractionResponse:
        """Steps 6-8 of Figure 5: decrypt Ṽ, take signs, re-encrypt under pk_j."""
        if span is not None:
            span.set_attribute("rows", len(request.matrix))
        if not self.directory.has_su_key(request.su_id):
            raise ProtocolError(f"SU {request.su_id!r} has not registered a key")
        su_key = self.directory.su_key(request.su_id)
        sk = self._keypair.private_key
        # Validate every cell before the first draw (a rejected request
        # consumes none and leaves the stock alone).  The nonces are the
        # ones drawn for this SU while serving its previous request; one
        # call draws whatever this request still lacks and then the SU's
        # next request's worth, so in steady state nothing a request
        # needs waits on a draw.  Then batch the expensive
        # exponentiations (two CRT halves per decryption plus one r**n
        # per re-encryption) through the executor; results are
        # byte-identical to the inline path.
        cells = [ct for row in request.matrix for ct in row]
        for ct in cells:
            if ct.public_key != self.group_public_key:
                raise ProtocolError("Ṽ entry not under the group key")
        stocked = self._stock.pop(request.su_id, [])
        surplus = stocked[len(cells):]
        shortfall = max(0, len(cells) - len(stocked))
        drawn = self._rng.random_units(
            su_key.n, shortfall + max(0, len(cells) - len(surplus))
        )
        nonces = stocked[: len(cells)] + drawn[:shortfall]
        self._stock[request.su_id] = surplus + drawn[shortfall:]
        if len(self._stock) > MAX_STOCKED_SUS:
            del self._stock[next(iter(self._stock))]
        jobs = []
        for ct, r in zip(cells, nonces):
            jobs.extend(sk.decrypt_pow_jobs(ct.ciphertext))
            jobs.append(su_key.obfuscator_job(r))
        powers = iter(self._executor.pow_many(jobs))
        converted = []
        for row in request.matrix:
            out_row = []
            for ct in row:
                raw = sk.raw_decrypt_from_pows(next(powers), next(powers))
                value = decode_signed(raw, self.group_public_key.n)
                self.stats.cells_decrypted += 1
                sign = 1 if value > 0 else -1
                out_row.append(su_key.encrypt_with_obfuscator(sign, next(powers)))
                self.stats.cells_encrypted += 1
            converted.append(tuple(out_row))
        self.stats.conversions += 1
        return SignExtractionResponse(
            round_id=request.round_id, su_id=request.su_id, matrix=tuple(converted)
        )
