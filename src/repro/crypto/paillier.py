"""The Paillier cryptosystem (Paillier, EUROCRYPT'99).

This module implements exactly the primitive PISA builds on (Figure 2 of
the paper): key generation, probabilistic encryption, decryption, and the
three homomorphic operations

* addition        ``D(E(a) ⊕ E(b)) = a + b  (mod n)``
* subtraction     ``D(E(a) ⊖ E(b)) = a − b  (mod n)``
* scalar multiply ``D(k ⊗ E(a))   = k · a  (mod n)``

plus ciphertext *re-randomisation* (multiplying by a fresh encryption of
zero), which §VI-A of the paper uses to refresh a pre-computed request
cheaply.

Implementation notes
--------------------
* Randomness is short and fixed-base (Damgård, Jurik and Nielsen, "A
  generalization of Paillier's public-key system with applications to
  electronic voting", IJIS 2010): the obfuscator of an encryption is
  ``h_n^s mod n²``, where ``h_n = (−x²)^n mod n²`` is fixed per key
  (``x`` is hashed from ``n``) and the nonce ``s`` is a
  :data:`~repro.crypto.rand.NONCE_EXPONENT_BITS`-bit exponent, in place
  of ``r**n`` for a fresh ``r ∈ Z_n^*`` — a 256-bit exponentiation
  instead of an ``n``-bit one.  What that assumes beyond DCR is in
  docs/security.md, "Short fixed-base randomness".
* The generator defaults to ``g = n + 1``, for which encryption needs a
  single modular multiplication (``(1 + m·n) · h_n^s mod n²``) instead of
  a full exponentiation of ``g``.
* Decryption uses the standard CRT speed-up: exponentiate separately
  modulo ``p²`` and ``q²`` and recombine, roughly a 4x saving.  A caller
  that knows ``|m| < p/2`` needs only the ``p`` half
  (:meth:`PaillierPrivateKey.half_decrypt_job`).
* Scalar multiplication by a *negative* constant inverts the ciphertext
  modulo ``n²`` first, so small negative scalars (PISA uses ``ε ∈ {−1,1}``)
  cost one inverse plus a small exponentiation rather than a 2048-bit one.
* All values are plain Python integers; every modular exponentiation
  goes through :func:`repro.crypto.backend.powmod` — libgmp where the
  host has it, builtin ``pow`` where not, the same integers either way.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.crypto.backend import FixedBase, powmod, powmod_many
from repro.crypto.hashing import sha256
from repro.crypto.numtheory import CrtContext, generate_distinct_primes, lcm, modinv
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import ConfigurationError, DecryptionError, KeyMismatchError

__all__ = [
    "ObfuscatorPool",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierKeypair",
    "EncryptedNumber",
    "generate_keypair",
    "DEFAULT_KEY_BITS",
]

#: NIST SP 800-57 recommends 2048-bit moduli for a 112-bit security level;
#: this matches Table II of the paper.
DEFAULT_KEY_BITS = 2048

#: Domain tag of the hash that derives ``x`` (hence ``h_n``) from ``n``.
_H_DOMAIN = b"PISA-paillier-h_n-v1"


def _fixed_base(n: int, n_sq: int) -> int:
    """``h_n = (−x²)^n mod n²`` with ``x`` a SHA-256 expansion of ``n``.

    No draw: anyone holding ``n`` derives the same base.  ``x`` takes
    128 bits beyond ``n``'s width before the reduction mod ``n``; the
    attempt counter moves on only if ``x`` is not a unit, which for
    ``n = p·q`` with large primes would reveal a factor.
    """
    n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
    blocks = (n.bit_length() + 128 + 255) // 256
    attempt = 0
    while True:
        stream = b"".join(
            sha256(_H_DOMAIN, n_bytes, attempt.to_bytes(4, "big"), i.to_bytes(4, "big"))
            for i in range(blocks)
        )
        x = int.from_bytes(stream, "big") % n
        if math.gcd(x, n) == 1:
            return powmod(-x * x % n, n, n_sq)
        attempt += 1


class PaillierPublicKey:
    """Public key ``(n, g)`` with precomputed ``n²``.

    Instances are hashable and compare equal iff their ``(n, g)`` pairs
    match, which lets ciphertexts detect cross-key operations.  The
    obfuscator base :attr:`h_n` is derived from ``n`` on first use and
    cached on the instance: a key decoded only to check or carry
    ciphertexts never pays for it.
    """

    __slots__ = ("n", "g", "n_sq", "_half_n", "_h_n")

    def __init__(self, n: int, g: int | None = None) -> None:
        if n < 15:
            raise ConfigurationError("Paillier modulus too small")
        self.n = n
        self.g = n + 1 if g is None else g
        self.n_sq = n * n
        self._half_n = n // 2
        self._h_n: FixedBase | None = None
        if not 1 < self.g < self.n_sq:
            raise ConfigurationError("generator g out of range")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PaillierPublicKey)
            and self.n == other.n
            and self.g == other.g
        )

    def __hash__(self) -> int:
        return hash(("paillier-pk", self.n, self.g))

    def __repr__(self) -> str:
        return f"PaillierPublicKey(bits={self.n.bit_length()})"

    @property
    def key_bits(self) -> int:
        """Bit length of the modulus ``n``."""
        return self.n.bit_length()

    @property
    def max_signed(self) -> int:
        """Largest magnitude representable by the signed encoding."""
        return self._half_n

    @property
    def h_n(self) -> FixedBase:
        """The fixed obfuscator base ``h_n = (−x²)^n mod n²``, ``x`` hashed from ``n``.

        A :class:`~repro.crypto.backend.FixedBase` of ``n²``: once a key
        has computed enough obfuscators, ``powmod`` serves ``h_n^s`` from
        a precomputed table.
        """
        if self._h_n is None:
            self._h_n = FixedBase(_fixed_base(self.n, self.n_sq), self.n_sq)
        return self._h_n

    # -- encryption -------------------------------------------------------

    def random_nonce(self, rng: RandomSource | None = None) -> int:
        """Sample an encryption nonce: an exponent ``s`` of ``h_n``.

        One draw of :meth:`RandomSource.random_exponents`, uniform in
        ``[0, 2^NONCE_EXPONENT_BITS)``.
        """
        return default_rng(rng).random_exponents(1)[0]

    def _g_to(self, m: int) -> int:
        """``g^m mod n²`` — one multiplication for ``g = n + 1``."""
        if self.g == self.n + 1:
            return (1 + m * self.n) % self.n_sq
        return powmod(self.g, m, self.n_sq)

    def raw_encrypt(self, plaintext: int, s: int | None = None, rng: RandomSource | None = None) -> int:
        """Encrypt ``plaintext ∈ Z_n`` and return the raw ciphertext integer.

        ``s`` is the nonce (drawn with :meth:`random_nonce` when omitted).
        """
        if s is None:
            s = self.random_nonce(rng)
        return (self._g_to(plaintext % self.n) * powmod(*self.obfuscator_job(s))) % self.n_sq

    def encrypt(
        self, value: int, s: int | None = None, rng: RandomSource | None = None
    ) -> "EncryptedNumber":
        """Encrypt a *signed* integer ``value`` with ``|value| ≤ n/2``.

        Negative values are mapped into the upper half of ``Z_n``; see
        :mod:`repro.crypto.encoding` for the encoding convention.
        """
        from repro.crypto.encoding import encode_signed

        return EncryptedNumber(self, self.raw_encrypt(encode_signed(value, self.n), s=s, rng=rng))

    def encrypt_zero(self, rng: RandomSource | None = None) -> "EncryptedNumber":
        """A fresh encryption of zero (useful for re-randomisation)."""
        return self.encrypt(0, rng=rng)

    def obfuscator_job(self, s: int) -> tuple[int, int, int]:
        """The :data:`~repro.crypto.parallel.PowJob` computing ``h_n^s mod n²``.

        Precomputing obfuscators is the embarrassingly-parallel half of
        encryption; feed the job to an executor and finish with
        :meth:`encrypt_with_obfuscator`.
        """
        return (self.h_n, s, self.n_sq)

    def encrypt_with_obfuscator(self, value: int, obfuscator: int) -> "EncryptedNumber":
        """Encrypt a signed integer using a precomputed ``h_n^s mod n²``.

        Byte-identical to ``encrypt(value, s=s)`` when ``obfuscator ==
        pow(h_n, s, n²)`` — the cheap completion step after the
        exponentiation ran elsewhere (another thread, idle-time stock).
        """
        from repro.crypto.encoding import encode_signed

        return EncryptedNumber(
            self, (self._g_to(encode_signed(value, self.n)) * obfuscator) % self.n_sq
        )


class PaillierPrivateKey:
    """Private key holding ``(λ, μ)`` plus CRT acceleration state."""

    __slots__ = (
        "public_key", "p", "q", "lam", "mu", "_crt", "_hp", "_hq", "_p_sq", "_q_sq",
        "_p_1", "_q_1",
    )

    def __init__(self, public_key: PaillierPublicKey, p: int, q: int) -> None:
        if p * q != public_key.n:
            raise ConfigurationError("p*q does not match the public modulus")
        if p == q:
            raise ConfigurationError("p and q must be distinct")
        self.public_key = public_key
        self.p = p
        self.q = q
        self.lam = lcm(p - 1, q - 1)
        self._crt = CrtContext.create(p, q)
        self._p_sq = p * p
        self._q_sq = q * q
        # The CRT exponents: one object each, shared by every job a batch
        # opens with, so the batch entry imports it once.
        self._p_1 = p - 1
        self._q_1 = q - 1
        # Standard CRT decryption constants:  h_p = L_p(g^{p-1} mod p²)^{-1}.
        self._hp = modinv(self._l_function(powmod(public_key.g, self._p_1, self._p_sq), p), p)
        self._hq = modinv(self._l_function(powmod(public_key.g, self._q_1, self._q_sq), q), q)
        # The textbook μ = L(g^λ mod n²)^{-1} mod n, kept for completeness
        # and for the non-CRT decryption path used in tests.
        n = public_key.n
        self.mu = modinv(self._l_function(powmod(public_key.g, self.lam, public_key.n_sq), n), n)

    @staticmethod
    def _l_function(x: int, n: int) -> int:
        """Paillier's ``L(x) = (x − 1) / n`` on the subgroup where it is exact."""
        return (x - 1) // n

    def raw_decrypt(self, ciphertext: int) -> int:
        """Decrypt a raw ciphertext integer to its plaintext in ``Z_n``."""
        return self.raw_decrypt_from_pows(*powmod_many(self.decrypt_pow_jobs(ciphertext)))

    def decrypt_pow_jobs(self, ciphertext: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The two CRT exponentiations of :meth:`raw_decrypt` as pow jobs.

        Lets a batch runtime ship the expensive halves of many
        decryptions to an executor; finish each with
        :meth:`raw_decrypt_from_pows`.
        """
        return self.half_decrypt_job(ciphertext), (ciphertext, self._q_1, self._q_sq)

    def raw_decrypt_from_pows(self, pow_p: int, pow_q: int) -> int:
        """Complete a CRT decryption from the :meth:`decrypt_pow_jobs` results."""
        mp = (self._l_function(pow_p, self.p) * self._hp) % self.p
        mq = (self._l_function(pow_q, self.q) * self._hq) % self.q
        return self._crt.combine(mp, mq)

    def half_decrypt_job(self, ciphertext: int) -> tuple[int, int, int]:
        """The ``p`` half of :meth:`decrypt_pow_jobs`: ``c^{p−1} mod p²``.

        Enough to open a ciphertext whose signed plaintext ``m`` is known
        to satisfy ``|m| < p/2``: then ``m mod p`` read in ``(−p/2, p/2)``
        *is* ``m``.  Finish with :meth:`signed_from_half`.
        """
        if not 0 < ciphertext < self.public_key.n_sq:
            raise DecryptionError("ciphertext out of range")
        return (ciphertext, self._p_1, self._p_sq)

    def signed_from_half(self, pow_p: int) -> int:
        """The plaintext mod ``p`` as a signed residue in ``(−p/2, p/2)``,
        from a :meth:`half_decrypt_job` result."""
        from repro.crypto.encoding import decode_signed

        return decode_signed((self._l_function(pow_p, self.p) * self._hp) % self.p, self.p)

    def raw_decrypt_textbook(self, ciphertext: int) -> int:
        """Decrypt using the textbook ``(λ, μ)`` formula (no CRT).

        Slower than :meth:`raw_decrypt`; kept as an oracle for tests.
        """
        if not 0 < ciphertext < self.public_key.n_sq:
            raise DecryptionError("ciphertext out of range")
        n = self.public_key.n
        x = powmod(ciphertext, self.lam, self.public_key.n_sq)
        return (self._l_function(x, n) * self.mu) % n

    def decrypt(self, encrypted: "EncryptedNumber") -> int:
        """Decrypt to a *signed* integer (see the encoding convention)."""
        from repro.crypto.encoding import decode_signed

        if encrypted.public_key != self.public_key:
            raise KeyMismatchError("ciphertext was produced under a different key")
        return decode_signed(self.raw_decrypt(encrypted.ciphertext), self.public_key.n)

    def __repr__(self) -> str:
        return f"PaillierPrivateKey(bits={self.public_key.key_bits})"


@dataclass(frozen=True)
class PaillierKeypair:
    """A matched public/private Paillier key pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    @property
    def key_bits(self) -> int:
        return self.public_key.key_bits


def generate_keypair(
    key_bits: int = DEFAULT_KEY_BITS, rng: RandomSource | None = None
) -> PaillierKeypair:
    """Generate a Paillier keypair with an ``key_bits``-bit modulus.

    The two primes are ``key_bits // 2`` bits each, so ``n`` has either
    ``key_bits`` or ``key_bits − 1`` bits; generation retries until the
    modulus has the requested length, matching common library behaviour.
    """
    if key_bits < 16:
        raise ConfigurationError("key_bits must be at least 16")
    rng = default_rng(rng)
    half = key_bits // 2
    while True:
        p, q = generate_distinct_primes(half, count=2, rng=rng)
        n = p * q
        if n.bit_length() == key_bits:
            public = PaillierPublicKey(n)
            return PaillierKeypair(public, PaillierPrivateKey(public, p, q))


class EncryptedNumber:
    """A Paillier ciphertext bound to its public key.

    Supports the operator sugar::

        c1 + c2        homomorphic addition (⊕)
        c1 - c2        homomorphic subtraction (⊖)
        k * c1         scalar multiplication (⊗), k a signed int
        -c1            negation, i.e. (−1) ⊗ c1
        c1 + k         plaintext addition (encrypt-free)

    All operations validate that both operands share the same public key.
    """

    __slots__ = ("public_key", "ciphertext")

    def __init__(self, public_key: PaillierPublicKey, ciphertext: int) -> None:
        self.public_key = public_key
        self.ciphertext = ciphertext % public_key.n_sq

    # -- helpers ----------------------------------------------------------

    def _check_same_key(self, other: "EncryptedNumber") -> None:
        if self.public_key != other.public_key:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")

    # -- homomorphic operations (Figure 2 of the paper) -------------------

    def add(self, other: "EncryptedNumber") -> "EncryptedNumber":
        """Homomorphic addition ⊕: multiply ciphertexts mod n²."""
        self._check_same_key(other)
        return EncryptedNumber(
            self.public_key,
            (self.ciphertext * other.ciphertext) % self.public_key.n_sq,
        )

    def subtract(self, other: "EncryptedNumber") -> "EncryptedNumber":
        """Homomorphic subtraction ⊖: multiply by the inverse ciphertext."""
        self._check_same_key(other)
        inv = modinv(other.ciphertext, self.public_key.n_sq)
        return EncryptedNumber(
            self.public_key, (self.ciphertext * inv) % self.public_key.n_sq
        )

    def scalar_mul(self, scalar: int) -> "EncryptedNumber":
        """Homomorphic scalar multiplication ⊗ by a signed integer."""
        n_sq = self.public_key.n_sq
        if scalar >= 0:
            return EncryptedNumber(self.public_key, powmod(self.ciphertext, scalar, n_sq))
        inv = modinv(self.ciphertext, n_sq)
        return EncryptedNumber(self.public_key, powmod(inv, -scalar, n_sq))

    def add_plain(self, value: int) -> "EncryptedNumber":
        """Add a public plaintext constant without a fresh encryption.

        Uses ``E(a) · g^b = E(a + b)`` and the fast ``g = n + 1`` path.
        """
        pk = self.public_key
        return EncryptedNumber(pk, (self.ciphertext * pk._g_to(value % pk.n)) % pk.n_sq)

    def rerandomize(self, rng: RandomSource | None = None) -> "EncryptedNumber":
        """Refresh the randomness: multiply by a fresh ``h_n^s``.

        This computes the obfuscator inline, one short exponentiation.
        §VI-A's fast refresh path precomputes obfuscators offline and
        applies them with :meth:`rerandomize_with`, which is a single
        modular multiplication ("the same amount of time as homomorphic
        addition", as the paper puts it).
        """
        pk = self.public_key
        return self.rerandomize_with(powmod(*pk.obfuscator_job(pk.random_nonce(rng))))

    def rerandomize_with(self, obfuscator: int) -> "EncryptedNumber":
        """Refresh using a precomputed obfuscator ``h_n^s mod n²``.

        One modular multiplication — the online cost of the §VI-A
        "multiply the pre-stored ciphertexts by r^n" optimisation.  Draw
        obfuscators from an :class:`ObfuscatorPool` filled offline.
        """
        pk = self.public_key
        return EncryptedNumber(pk, (self.ciphertext * obfuscator) % pk.n_sq)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: "EncryptedNumber | int") -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            return self.add(other)
        if isinstance(other, int):
            return self.add_plain(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "EncryptedNumber | int") -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            return self.subtract(other)
        if isinstance(other, int):
            return self.add_plain(-other)
        return NotImplemented

    def __mul__(self, scalar: int) -> "EncryptedNumber":
        if isinstance(scalar, int):
            return self.scalar_mul(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "EncryptedNumber":
        return self.scalar_mul(-1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EncryptedNumber)
            and self.public_key == other.public_key
            and self.ciphertext == other.ciphertext
        )

    def __hash__(self) -> int:
        return hash(("paillier-ct", self.public_key.n, self.ciphertext))

    def __repr__(self) -> str:
        return f"EncryptedNumber(bits={self.public_key.key_bits})"


class ObfuscatorPool:
    """A stock of precomputed re-randomisation factors ``h_n^s mod n²``.

    §VI-A: an SU that resubmits a cached encrypted request only needs
    one multiplication per ciphertext *if* the obfuscators are
    already on hand.  The pool is that offline stock: :meth:`refill`
    does the expensive exponentiations (idle-time work), :meth:`take`
    pops the oldest factor for a cheap online refresh.
    """

    def __init__(self, public_key: PaillierPublicKey, rng: RandomSource | None = None) -> None:
        self.public_key = public_key
        self._rng = default_rng(rng)
        self._stock: deque[int] = deque()

    def __len__(self) -> int:
        return len(self._stock)

    def refill(self, count: int, executor=None) -> None:
        """Precompute ``count`` obfuscators (the offline phase).

        The nonces are one :meth:`RandomSource.random_exponents` batch
        (randomness stays in-process) and the ``h_n^s`` exponentiations
        run through ``executor`` when one is given — see
        :mod:`repro.crypto.parallel`.
        """
        from repro.crypto.parallel import default_executor

        if count < 0:
            raise ValueError("count must be non-negative")
        pk = self.public_key
        nonces = self._rng.random_exponents(count)
        self._stock.extend(
            default_executor(executor).pow_many([pk.obfuscator_job(s) for s in nonces])
        )

    def ensure(self, count: int, executor=None) -> None:
        """Refill up to a target stock level."""
        if len(self._stock) < count:
            self.refill(count - len(self._stock), executor=executor)

    def take(self) -> int:
        """Pop the oldest precomputed obfuscator; refills one inline if empty.

        Draw order out: pre-stocking a pool changes no refreshed byte.
        """
        if not self._stock:
            self.refill(1)
        return self._stock.popleft()


def hom_sum(terms: Iterable[EncryptedNumber]) -> EncryptedNumber:
    """Homomorphic sum ``⊕_i c_i`` of a non-empty iterable of ciphertexts."""
    iterator = iter(terms)
    try:
        total = next(iterator)
    except StopIteration:
        raise ValueError("hom_sum needs at least one ciphertext") from None
    for term in iterator:
        total = total.add(term)
    return total


__all__.append("hom_sum")
