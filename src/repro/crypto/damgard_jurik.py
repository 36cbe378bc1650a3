"""The Damgård–Jurik generalisation of Paillier (s ≥ 1).

Paillier works modulo ``n²`` with plaintexts in ``Z_n``; Damgård–Jurik
(PKC'01) generalises to ciphertexts modulo ``n^{s+1}`` with plaintexts
in ``Z_{n^s}``:

.. math::

    E(m, r) = (1+n)^m · r^{n^s}  \\bmod n^{s+1}

The same homomorphic operations carry over (multiply → add, power →
scalar multiply), ``s = 1`` *is* Paillier, and the ciphertext-to-
plaintext expansion drops from 2x to ``(s+1)/s`` — which is exactly what
the packed-request extension wants: an ``s = 2`` key more than doubles
the slots per ciphertext at far less than double the per-operation
cost.

Decryption uses the exponent ``d ≡ 0 (mod λ)``, ``d ≡ 1 (mod n^s)``
followed by Damgård–Jurik's recursive extraction of ``m`` from
``(1+n)^m mod n^{s+1}`` (Hensel-style lifting digit by digit in base
``n``).

The class surface mirrors :mod:`repro.crypto.paillier` deliberately, so
higher layers can swap the scheme in wherever a bigger plaintext space
pays for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.backend import powmod
from repro.crypto.numtheory import crt_pair, generate_distinct_primes, lcm, modinv
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import (
    ConfigurationError,
    DecryptionError,
    EncodingRangeError,
    KeyMismatchError,
)

__all__ = [
    "DjPublicKey",
    "DjPrivateKey",
    "DjKeypair",
    "DjCiphertext",
    "generate_dj_keypair",
]


class DjPublicKey:
    """Public key ``(n, s)``: plaintexts mod ``n^s``, ciphertexts mod ``n^{s+1}``."""

    __slots__ = ("n", "s", "n_s", "n_s1")

    def __init__(self, n: int, s: int = 1) -> None:
        if n < 15:
            raise ConfigurationError("modulus too small")
        if s < 1:
            raise ConfigurationError("s must be at least 1")
        self.n = n
        self.s = s
        self.n_s = n**s
        self.n_s1 = n ** (s + 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DjPublicKey) and (self.n, self.s) == (other.n, other.s)

    def __hash__(self) -> int:
        return hash(("dj-pk", self.n, self.s))

    def __repr__(self) -> str:
        return f"DjPublicKey(bits={self.n.bit_length()}, s={self.s})"

    @property
    def key_bits(self) -> int:
        return self.n.bit_length()

    @property
    def plaintext_bits(self) -> int:
        """Bits of the plaintext space ``n^s``."""
        return self.n_s.bit_length()

    @property
    def max_signed(self) -> int:
        return self.n_s // 2

    @property
    def expansion_ratio(self) -> float:
        """Ciphertext/plaintext size ratio ``(s+1)/s`` — 2.0 for Paillier."""
        return (self.s + 1) / self.s

    # -- encryption -------------------------------------------------------------

    def random_r(self, rng: RandomSource | None = None) -> int:
        """An encryption nonce uniform in ``Z_n^*`` — one
        :meth:`RandomSource.random_units` draw, as in Paillier."""
        return default_rng(rng).random_units(self.n, 1)[0]

    def raw_encrypt(
        self, plaintext: int, r: int | None = None, rng: RandomSource | None = None
    ) -> int:
        m = plaintext % self.n_s
        if r is None:
            r = self.random_r(rng)
        # (1+n)^m mod n^{s+1}: binomial expansion truncates after s+1
        # terms, but plain pow is already efficient and exact.
        g_m = powmod(1 + self.n, m, self.n_s1)
        return (g_m * powmod(r, self.n_s, self.n_s1)) % self.n_s1

    def encrypt(
        self, value: int, r: int | None = None, rng: RandomSource | None = None
    ) -> "DjCiphertext":
        half = self.n_s // 2
        if value > half or value < -half:
            raise EncodingRangeError("value outside the signed plaintext range")
        return DjCiphertext(self, self.raw_encrypt(value % self.n_s, r=r, rng=rng))


class DjPrivateKey:
    """Private key: the CRT-defined decryption exponent plus extraction."""

    __slots__ = ("public_key", "p", "q", "_d")

    def __init__(self, public_key: DjPublicKey, p: int, q: int) -> None:
        if p * q != public_key.n:
            raise ConfigurationError("p*q does not match the modulus")
        if p == q:
            raise ConfigurationError("p and q must be distinct")
        self.public_key = public_key
        self.p = p
        self.q = q
        lam = lcm(p - 1, q - 1)
        # Keygen-time validity check, not a data-dependent branch: it runs
        # once per key and only rejects degenerate moduli.
        if math.gcd(lam, public_key.n) != 1:  # audit-ok: SEC002
            raise ConfigurationError("gcd(λ, n) must be 1 (regenerate the key)")
        # d ≡ 1 (mod n^s), d ≡ 0 (mod λ).
        self._d = crt_pair(1 % public_key.n_s, 0, public_key.n_s, lam)

    def _extract(self, a: int) -> int:
        """Recover ``m`` from ``a = (1+n)^m mod n^{s+1}`` (DJ Theorem 1).

        Lifts ``m mod n^j`` to ``m mod n^{j+1}`` for j = 1..s using the
        truncated binomial series of ``(1+n)^m``.
        """
        pk = self.public_key
        n = pk.n
        m = 0
        for j in range(1, pk.s + 1):
            n_j = n**j
            n_j1 = n ** (j + 1)
            t1 = ((a % n_j1) - 1) // n  # L(a mod n^{j+1})
            t2 = m
            for k in range(2, j + 1):
                m = m - 1
                t2 = (t2 * m) % n_j
                factorial_inv = modinv(math.factorial(k), n_j)
                t1 = (t1 - t2 * (n ** (k - 1)) * factorial_inv) % n_j
            m = t1 % n_j
        return m

    def raw_decrypt(self, ciphertext: int) -> int:
        pk = self.public_key
        if not 0 < ciphertext < pk.n_s1:
            raise DecryptionError("ciphertext out of range")
        return self._extract(powmod(ciphertext, self._d, pk.n_s1))

    def decrypt(self, encrypted: "DjCiphertext") -> int:
        if encrypted.public_key != self.public_key:
            raise KeyMismatchError("ciphertext under a different key")
        residue = self.raw_decrypt(encrypted.ciphertext)
        half = self.public_key.n_s // 2
        return residue - self.public_key.n_s if residue > half else residue


@dataclass(frozen=True)
class DjKeypair:
    public_key: DjPublicKey
    private_key: DjPrivateKey


def generate_dj_keypair(
    key_bits: int = 2048, s: int = 2, rng: RandomSource | None = None
) -> DjKeypair:
    """Generate a Damgård–Jurik keypair with an exact-size modulus."""
    if key_bits < 16:
        raise ConfigurationError("key_bits must be at least 16")
    rng = default_rng(rng)
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        n = p * q
        if n.bit_length() != key_bits:
            continue
        if math.gcd(lcm(p - 1, q - 1), n) != 1:
            continue
        public = DjPublicKey(n, s=s)
        return DjKeypair(public, DjPrivateKey(public, p, q))


class DjCiphertext:
    """A Damgård–Jurik ciphertext with the familiar operator sugar."""

    __slots__ = ("public_key", "ciphertext")

    def __init__(self, public_key: DjPublicKey, ciphertext: int) -> None:
        self.public_key = public_key
        self.ciphertext = ciphertext % public_key.n_s1

    def _check(self, other: "DjCiphertext") -> None:
        if self.public_key != other.public_key:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")

    def add(self, other: "DjCiphertext") -> "DjCiphertext":
        self._check(other)
        return DjCiphertext(
            self.public_key,
            (self.ciphertext * other.ciphertext) % self.public_key.n_s1,
        )

    def subtract(self, other: "DjCiphertext") -> "DjCiphertext":
        self._check(other)
        inv = modinv(other.ciphertext, self.public_key.n_s1)
        return DjCiphertext(self.public_key, (self.ciphertext * inv) % self.public_key.n_s1)

    def scalar_mul(self, scalar: int) -> "DjCiphertext":
        n_s1 = self.public_key.n_s1
        if scalar >= 0:
            return DjCiphertext(self.public_key, powmod(self.ciphertext, scalar, n_s1))
        inv = modinv(self.ciphertext, n_s1)
        return DjCiphertext(self.public_key, powmod(inv, -scalar, n_s1))

    def add_plain(self, value: int) -> "DjCiphertext":
        pk = self.public_key
        g_m = powmod(1 + pk.n, value % pk.n_s, pk.n_s1)
        return DjCiphertext(pk, (self.ciphertext * g_m) % pk.n_s1)

    def rerandomize(self, rng: RandomSource | None = None) -> "DjCiphertext":
        pk = self.public_key
        r = pk.random_r(rng)
        return DjCiphertext(
            pk, (self.ciphertext * powmod(r, pk.n_s, pk.n_s1)) % pk.n_s1
        )

    def __add__(self, other):
        if isinstance(other, DjCiphertext):
            return self.add(other)
        if isinstance(other, int):
            return self.add_plain(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DjCiphertext):
            return self.subtract(other)
        if isinstance(other, int):
            return self.add_plain(-other)
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            return self.scalar_mul(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self.scalar_mul(-1)

    def __repr__(self) -> str:
        return (
            f"DjCiphertext(bits={self.public_key.key_bits}, s={self.public_key.s})"
        )
