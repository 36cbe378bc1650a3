"""Number-theoretic primitives.

Everything the Paillier and RSA layers need: Miller–Rabin primality
testing, random prime generation, modular inverses, least common
multiple, and Chinese-remainder recombination.

The implementations favour clarity over micro-optimisation; the hot
paths (Miller–Rabin's exponentiation, ``modinv``) go through
:func:`repro.crypto.backend.powmod` — libgmp where the host has it,
CPython's C-level ``pow`` otherwise — and are practical up to a few
thousand bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.backend import powmod
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import CryptoError

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_distinct_primes",
    "modinv",
    "lcm",
    "crt_pair",
    "CrtContext",
]

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = tuple(
    p
    for p in range(3, 1000, 2)
    if all(p % q for q in range(3, int(p**0.5) + 1, 2))
)


def _miller_rabin_witness(candidate: int, base: int, d: int, r: int) -> bool:
    """Return True iff ``base`` witnesses that ``candidate`` is composite."""
    x = powmod(base, d, candidate)
    if x in (1, candidate - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % candidate
        if x == candidate - 1:
            return False
    return True


def is_probable_prime(candidate: int, rounds: int = 40, rng: RandomSource | None = None) -> bool:
    """Miller–Rabin primality test.

    ``rounds`` random bases give a composite-acceptance probability of at
    most ``4**-rounds``; the default 40 rounds is far below any practical
    failure probability.
    """
    if candidate < 2:
        return False
    if candidate in (2, 3):
        return True
    if candidate % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    rng = default_rng(rng)
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        base = rng.randrange(2, candidate - 1)
        if _miller_rabin_witness(candidate, base, d, r):
            return False
    return True


def generate_prime(bits: int, rng: RandomSource | None = None, max_attempts: int = 100_000) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    rng = default_rng(rng)
    for _ in range(max_attempts):
        candidate = rng.rand_odd(bits)
        if is_probable_prime(candidate, rng=rng):
            return candidate
    raise CryptoError(f"failed to find a {bits}-bit prime in {max_attempts} attempts")


def generate_distinct_primes(
    bits: int, count: int = 2, rng: RandomSource | None = None
) -> list[int]:
    """Generate ``count`` distinct primes of ``bits`` bits each."""
    rng = default_rng(rng)
    primes: list[int] = []
    while len(primes) < count:
        p = generate_prime(bits, rng=rng)
        if p not in primes:
            primes.append(p)
    return primes


def modinv(value: int, modulus: int) -> int:
    """Return the inverse of ``value`` modulo ``modulus``.

    Raises :class:`CryptoError` when the inverse does not exist.
    """
    try:
        return powmod(value, -1, modulus)
    except ValueError as exc:  # pragma: no cover - message text differs by version
        raise CryptoError(f"{value} is not invertible modulo {modulus}") from exc


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a <= 0 or b <= 0:
        raise CryptoError("lcm arguments must be positive")
    return a // math.gcd(a, b) * b


def crt_pair(residue_p: int, residue_q: int, p: int, q: int, q_inv_p: int | None = None) -> int:
    """Recombine residues mod ``p`` and mod ``q`` into a residue mod ``p*q``.

    ``q_inv_p`` may be supplied to avoid recomputing ``q^{-1} mod p``.
    """
    if q_inv_p is None:
        q_inv_p = modinv(q, p)
    diff = (residue_p - residue_q) % p
    return (residue_q + q * ((diff * q_inv_p) % p)) % (p * q)


@dataclass(frozen=True)
class CrtContext:
    """Precomputed context for fast CRT recombination mod ``p*q``.

    Used by Paillier private keys to cut decryption cost roughly 4x by
    exponentiating separately modulo ``p**2`` and ``q**2``.
    """

    p: int
    q: int
    q_inv_p: int

    @classmethod
    def create(cls, p: int, q: int) -> "CrtContext":
        if p == q:
            raise CryptoError("CRT moduli must be distinct")
        if math.gcd(p, q) != 1:
            raise CryptoError("CRT moduli must be coprime")
        return cls(p=p, q=q, q_inv_p=modinv(q, p))

    def combine(self, residue_p: int, residue_q: int) -> int:
        """Return the unique value mod ``p*q`` matching both residues."""
        return crt_pair(residue_p, residue_q, self.p, self.q, self.q_inv_p)
