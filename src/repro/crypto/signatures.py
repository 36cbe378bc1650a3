"""RSA full-domain-hash signatures for transmission licenses.

§IV-B step (2) of the paper: the SDC signs each transmission license with
"a typical digital signature algorithm (e.g., RSA, DSA, etc.)", encrypts
the signature under the SU's Paillier key, and perturbs it homomorphically
so it only decrypts to a *valid* signature when every interference budget
is respected.

Because the signature integer must live inside the SU's Paillier
plaintext space ``Z_{n_j}``, PISA deployments pick the RSA modulus
strictly smaller than every SU Paillier modulus;
:func:`generate_rsa_keypair` takes the bit size explicitly and
:class:`RsaFdhSigner` validates the produced signature fits a given bound.

The hash is a SHA-256-based MGF1 expansion (full-domain hash), giving an
existentially unforgeable scheme in the random-oracle model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.backend import powmod
from repro.crypto.hashing import sha256
from repro.crypto.numtheory import generate_distinct_primes, modinv
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import ConfigurationError, SignatureError

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "RsaFdhSigner",
    "RsaFdhVerifier",
    "generate_rsa_keypair",
    "full_domain_hash",
]

_RSA_E = 65537


def full_domain_hash(message: bytes, modulus: int) -> int:
    """MGF1-style full-domain hash of ``message`` into ``Z_modulus``.

    SHA-256 blocks ``H(counter || message)`` are concatenated until the
    output covers the modulus length, then reduced mod ``modulus``.
    Reduction bias is negligible because we expand 64 extra bits.
    """
    target_bits = modulus.bit_length() + 64
    blocks = []
    counter = 0
    bits = 0
    while bits < target_bits:
        blocks.append(sha256(counter.to_bytes(4, "big"), message))
        counter += 1
        bits += 256
    return int.from_bytes(b"".join(blocks), "big") % modulus


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA verification key ``(n, e)``."""

    n: int
    e: int = _RSA_E

    @property
    def key_bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA signing key; ``d`` is the inverse of ``e`` mod ``λ(n)``."""

    public_key: RsaPublicKey
    d: int


def generate_rsa_keypair(
    key_bits: int = 2048, rng: RandomSource | None = None
) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate an RSA keypair with a modulus of exactly ``key_bits`` bits."""
    if key_bits < 32:
        raise ConfigurationError("RSA key_bits must be at least 32")
    rng = default_rng(rng)
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        n = p * q
        if n.bit_length() != key_bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _RSA_E == 0:
            continue
        d = modinv(_RSA_E, phi)
        public = RsaPublicKey(n=n)
        return public, RsaPrivateKey(public_key=public, d=d)


class RsaFdhSigner:
    """Produces integer signatures ``σ = H(m)^d mod n``."""

    def __init__(self, private_key: RsaPrivateKey) -> None:
        self._key = private_key

    @property
    def public_key(self) -> RsaPublicKey:
        return self._key.public_key

    def sign(self, message: bytes, max_value: int | None = None) -> int:
        """Sign ``message``; optionally enforce ``σ < max_value``.

        ``max_value`` is the SU's Paillier modulus in PISA — the signature
        must be a valid Paillier plaintext.  A correctly configured system
        (RSA modulus < Paillier modulus) always satisfies the bound.
        """
        n = self._key.public_key.n
        sigma = powmod(full_domain_hash(message, n), self._key.d, n)
        if max_value is not None and sigma >= max_value:
            raise SignatureError(
                "signature does not fit the target plaintext space; use a "
                "smaller RSA modulus than the Paillier modulus"
            )
        return sigma


class RsaFdhVerifier:
    """Verifies integer signatures against a public key."""

    def __init__(self, public_key: RsaPublicKey) -> None:
        self._key = public_key

    def verify(self, message: bytes, signature: int) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        n = self._key.n
        if not 0 <= signature < n:
            return False
        return powmod(signature, self._key.e, n) == full_domain_hash(message, n)
