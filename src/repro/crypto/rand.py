"""Randomness sources.

Two sources are provided behind one tiny interface:

* :class:`SystemRandomSource` — wraps :mod:`secrets`; used by default for
  every key, nonce, and blinding factor.
* :class:`DeterministicRandomSource` — a seedable ChaCha-free DRBG built on
  SHA-256 in counter mode.  It exists so tests, benchmarks, and examples
  are reproducible; it must never be used for real deployments.

All generation helpers in this library accept an optional ``rng`` argument
of type :class:`RandomSource` and default to the system source.
"""

from __future__ import annotations

import secrets
import threading
from abc import ABC, abstractmethod

from repro.crypto.hashing import sha256

#: Width of a Paillier nonce: the exponent ``s`` of an obfuscator
#: ``h_n^s mod n²`` (:mod:`repro.crypto.paillier`).  At 256 bits the
#: square-root attack on a short exponent costs ``2^128`` steps
#: (docs/security.md, "Short fixed-base randomness").
NONCE_EXPONENT_BITS = 256

__all__ = [
    "NONCE_EXPONENT_BITS",
    "RandomSource",
    "SystemRandomSource",
    "DeterministicRandomSource",
    "default_rng",
]


class RandomSource(ABC):
    """Interface for integer randomness used by the crypto layer."""

    @abstractmethod
    def randbits(self, bits: int) -> int:
        """Return a uniform integer in ``[0, 2**bits)``."""

    def randbelow(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            candidate = self.randbits(bits)
            if candidate < bound:
                return candidate

    def randrange(self, low: int, high: int) -> int:
        """Return a uniform integer in ``[low, high)``."""
        if high <= low:
            raise ValueError("empty range")
        return low + self.randbelow(high - low)

    def random_exponents(self, count: int) -> list[int]:
        """Return ``count`` Paillier nonces, uniform in ``[0, 2^NONCE_EXPONENT_BITS)``.

        The one batched draw, in draw order: a source whose stream lives
        elsewhere overrides this to fetch a whole batch at once, and must
        consume that stream exactly as this loop does — one
        ``randbits(NONCE_EXPONENT_BITS)`` per nonce.
        """
        return [self.randbits(NONCE_EXPONENT_BITS) for _ in range(count)]

    def rand_odd(self, bits: int) -> int:
        """Return a uniform odd integer with exactly ``bits`` bits."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        value = self.randbits(bits - 2)
        return (1 << (bits - 1)) | (value << 1) | 1

    def choice(self, seq):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randbelow(len(seq))]


class SystemRandomSource(RandomSource):
    """Cryptographically secure randomness from the operating system."""

    def randbits(self, bits: int) -> int:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if bits == 0:
            return 0
        return secrets.randbits(bits)


class DeterministicRandomSource(RandomSource):
    """SHA-256 counter-mode DRBG.  Reproducible; NOT secure for production.

    The state is ``(seed, counter)``; each block is
    ``SHA256(seed || counter)`` and blocks are concatenated until enough
    bits are available.

    Safe to share between threads: one lock makes each draw atomic, so
    concurrent callers receive disjoint slices of the one serial stream.
    """

    def __init__(self, seed: int | bytes | str = 0) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = 0
        self._buffer_bits = 0
        self._lock = threading.Lock()

    def _refill(self) -> None:
        block = sha256(self._seed, self._counter.to_bytes(8, "big"))
        self._counter += 1
        self._buffer = (self._buffer << 256) | int.from_bytes(block, "big")
        self._buffer_bits += 256

    def randbits(self, bits: int) -> int:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if bits == 0:
            return 0
        with self._lock:
            while self._buffer_bits < bits:
                self._refill()
            self._buffer_bits -= bits
            value = self._buffer >> self._buffer_bits
            self._buffer &= (1 << self._buffer_bits) - 1
            return value

    def fork(self, label: str) -> "DeterministicRandomSource":
        """Return an independent child stream derived from this seed."""
        return DeterministicRandomSource(self._seed + b"/" + label.encode("utf-8"))


_SYSTEM = SystemRandomSource()


def default_rng(rng: RandomSource | None = None) -> RandomSource:
    """Return ``rng`` if given, else the process-wide system source."""
    return _SYSTEM if rng is None else rng
