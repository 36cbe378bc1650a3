"""Additively shared (t-of-t) threshold Paillier decryption.

The paper's future work (§VII) is to "pursue a model that does not
involve an STP": in PISA the STP is a single point of total compromise —
whoever holds ``sk_G`` can decrypt *every* PU update and SU request ever
sent.  The standard fix is to make decryption a joint operation, so no
single server can decrypt anything alone.

Construction (the classic exponent-sharing variant):

* choose ``d`` with ``d ≡ 0 (mod λ)`` and ``d ≡ 1 (mod n)`` (CRT; ``λ``
  and ``n`` are coprime for all but a negligible fraction of keys, which
  key generation rejects);
* then for any ciphertext ``c = (1+n)^m · r^n``:
  ``c^d = (1+n)^{m·d} · r^{n·d} = 1 + m·n  (mod n²)``,
  because ``n·d ≡ 0 (mod n·λ)`` kills the ``r`` part and
  ``d ≡ 1 (mod n)`` fixes the message part — so
  ``m = L(c^d mod n²)`` with no ``μ`` correction;
* split ``d`` additively: ``d = Σ dᵢ (mod n·λ)`` with each ``dᵢ``
  uniform.  Party *i* publishes the partial ``c^{dᵢ} mod n²``; anyone
  can multiply the partials and apply ``L``.

Each share alone is a uniformly random exponent — a single partial
decryption of a ciphertext is a uniformly random group element from the
holder's perspective and reveals nothing about the plaintext.

A trusted dealer generates and splits the key here; distributed key
generation (no dealer at all) is orthogonal machinery and out of scope,
as is robustness against malicious shareholders (we target the paper's
honest-but-curious model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.backend import powmod
from repro.crypto.numtheory import crt_pair, generate_distinct_primes, lcm
from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import ConfigurationError, CryptoError, DecryptionError

__all__ = [
    "DecryptionShare",
    "PartialDecryption",
    "ThresholdKeypair",
    "generate_threshold_keypair",
    "combine_partials",
]


@dataclass(frozen=True)
class DecryptionShare:
    """One party's additive share ``dᵢ`` of the decryption exponent."""

    index: int
    exponent: int
    public_key: PaillierPublicKey

    def partial_decrypt(self, ciphertext: EncryptedNumber) -> "PartialDecryption":
        """Compute this party's partial ``c^{dᵢ} mod n²``."""
        if ciphertext.public_key != self.public_key:
            raise CryptoError("ciphertext not under the shared key")
        return PartialDecryption(
            index=self.index,
            value=powmod(ciphertext.ciphertext, self.exponent, self.public_key.n_sq),
        )


@dataclass(frozen=True)
class PartialDecryption:
    """The group element ``c^{dᵢ}`` contributed by share ``index``."""

    index: int
    value: int


@dataclass(frozen=True)
class ThresholdKeypair:
    """A shared Paillier key: one public key, ``num_shares`` shares.

    All shares are required to decrypt (t-of-t).  The dealer-side full
    exponent is intentionally NOT retained.
    """

    public_key: PaillierPublicKey
    shares: tuple[DecryptionShare, ...]

    @property
    def num_shares(self) -> int:
        return len(self.shares)


def generate_threshold_keypair(
    key_bits: int = 2048, num_shares: int = 2, rng: RandomSource | None = None
) -> ThresholdKeypair:
    """Generate a Paillier key whose decryption exponent is shared.

    Retries key generation until ``gcd(λ, n) = 1`` (needed for the CRT
    defining ``d``); random balanced keys satisfy this with overwhelming
    probability.
    """
    if num_shares < 2:
        raise ConfigurationError("threshold sharing needs at least 2 shares")
    if key_bits < 16:
        raise ConfigurationError("key_bits must be at least 16")
    rng = default_rng(rng)
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        n = p * q
        if n.bit_length() != key_bits:
            continue
        lam = lcm(p - 1, q - 1)
        # Keygen-time validity check on a candidate modulus (re-rolled on
        # failure), not a secret-dependent protocol branch.
        if math.gcd(lam, n) != 1:  # audit-ok: SEC002
            continue
        public_key = PaillierPublicKey(n)
        # d ≡ 0 (mod λ), d ≡ 1 (mod n); reduce exponents mod n·λ, the
        # group exponent of Z*_{n²}.
        modulus = n * lam
        d = crt_pair(1 % n, 0, n, lam) % modulus
        # Additive split: num_shares − 1 uniform shares, last one fixes the sum.
        partial_sum = 0
        shares = []
        for index in range(num_shares - 1):
            share = rng.randbelow(modulus)
            partial_sum = (partial_sum + share) % modulus
            shares.append(DecryptionShare(index, share, public_key))
        shares.append(
            DecryptionShare(num_shares - 1, (d - partial_sum) % modulus, public_key)
        )
        return ThresholdKeypair(public_key=public_key, shares=tuple(shares))


def combine_partials(
    public_key: PaillierPublicKey, partials: list[PartialDecryption]
) -> int:
    """Combine all parties' partials into the signed plaintext.

    ``m = L(Π c^{dᵢ} mod n²)`` decoded with the library's signed
    convention.  Raises :class:`DecryptionError` when the product falls
    outside the ``1 + m·n`` subgroup (missing or mismatched partials).
    """
    from repro.crypto.encoding import decode_signed

    if not partials:
        raise DecryptionError("no partial decryptions to combine")
    indices = {p.index for p in partials}
    if len(indices) != len(partials):
        raise DecryptionError("duplicate partial decryption indices")
    product = 1
    for partial in partials:
        product = (product * partial.value) % public_key.n_sq
    if product % public_key.n != 1:
        raise DecryptionError("partials do not combine to a valid decryption")
    return decode_signed((product - 1) // public_key.n, public_key.n)
