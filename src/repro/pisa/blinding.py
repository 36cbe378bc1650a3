"""Blinding factors for the sign-extraction step (eq. (14)).

The SDC hides each interference indicator ``I(c, i)`` from the STP by
sending

.. math::

    V(c, i) = ε(c,i) · (α(c,i) · I(c,i) − β(c,i))

with per-cell one-time randomness: large positive integers
``α > β ≥ 1`` and a uniform sign flip ``ε ∈ {−1, +1}``.  Because
``α·I − β`` is ≥ α−β > 0 when I > 0 and < 0 when I ≤ 0, the STP's sign
observation ``sign(V)`` equals ``ε · sign'(I)`` where ``sign'`` maps
``I > 0 → +1`` and ``I ≤ 0 → −1`` — so unblinding is just multiplying by
ε again (eq. (16)) while the STP, not knowing ε, sees an unbiased coin.

Safety condition
----------------
The blinded value must stay inside the signed half-range of the
*smaller prime* of the group modulus, or the sign the STP reads flips by
wrap-around:

.. math::

    α_{max} · |I|_{max} + β_{max} < 2^{⌊n_{bits}/2⌋ − 1} / 2 ≤ \\min(p, q) / 2

(:func:`~repro.crypto.paillier.generate_keypair` draws both primes at
``⌊n_bits/2⌋`` bits).  Below ``p/2`` the residue ``V mod p`` already *is*
``V``, so the STP opens a cell with one CRT half
(:mod:`repro.pisa.stp_server`) and refuses any opened ``|V|`` above
:attr:`BlindingParameters.max_blinded`.
:class:`BlindingParameters` derives usable bit-widths from the key size
and the indicator bound (:func:`indicator_bound_for`) and *refuses
unsafe configurations* (:class:`~repro.errors.BlindingError`), which a
test exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import BlindingError
from repro.watch.params import WatchParameters

__all__ = ["BlindingParameters", "CellBlinding", "BlindingFactory", "indicator_bound_for"]

#: Table II benchmarks homomorphic scaling with a "100-bit constant";
#: we default α to the same width when the key leaves room for it.
DEFAULT_ALPHA_BITS = 100

#: Minimum acceptable blinding width: below this the STP could narrow
#: down |I| by brute force over plausible α.
MIN_ALPHA_BITS = 32


def indicator_bound_for(params: WatchParameters) -> int:
    """The bound on ``|I|``: ``max(N, R) ≤ 2**value_bits · (X + 1)``, with
    ``X`` the integer SINR factor of eq. (11)."""
    return (1 << params.value_bits) * (params.sinr_plus_redn_int + 1)


@dataclass(frozen=True)
class BlindingParameters:
    """Validated bit-widths for α and β under a given key and value bound."""

    alpha_bits: int
    beta_bits: int
    indicator_bound: int

    @property
    def max_blinded(self) -> int:
        """The largest ``|V| = |ε(αI − β)|`` these widths can produce."""
        return ((1 << self.alpha_bits) - 1) * self.indicator_bound + (1 << self.beta_bits) - 1

    @classmethod
    def for_key(
        cls,
        public_key: PaillierPublicKey,
        indicator_bound: int,
        alpha_bits: int = DEFAULT_ALPHA_BITS,
    ) -> "BlindingParameters":
        """Derive safe widths for ``|I| ≤ indicator_bound`` under ``public_key``.

        ``alpha_bits`` is clamped down to what the key allows; if even
        :data:`MIN_ALPHA_BITS` does not fit, a :class:`BlindingError` is
        raised — the deployment must use a larger key or narrower values.
        """
        if indicator_bound < 1:
            raise BlindingError("indicator bound must be positive")
        # α·|I| + β < 2^(h−1)/2 ≤ min(p, q)/2, h = ⌊n_bits/2⌋
        #   ⇐  alpha_bits + bound_bits + 1 ≤ h − 2.
        headroom = public_key.n.bit_length() // 2 - 3 - indicator_bound.bit_length()
        usable = min(alpha_bits, headroom)
        if usable < MIN_ALPHA_BITS:
            raise BlindingError(
                f"key of {public_key.n.bit_length()} bits leaves only {usable} "
                f"bits for α against a {indicator_bound.bit_length()}-bit "
                f"indicator bound (minimum {MIN_ALPHA_BITS})"
            )
        return cls(alpha_bits=usable, beta_bits=usable - 1, indicator_bound=indicator_bound)


@dataclass(frozen=True)
class CellBlinding:
    """One-time blinding for a single (channel, block) cell."""

    alpha: int
    beta: int
    epsilon: int  # −1 or +1

    def blind_value(self, indicator: int) -> int:
        """Plaintext-domain reference of eq. (14) (used by tests)."""
        return self.epsilon * (self.alpha * indicator - self.beta)


class BlindingFactory:
    """Draws per-cell one-time blinding factors.

    Guarantees ``α > β ≥ 1`` (the paper's stated invariant) by sampling
    β uniformly below ``2**beta_bits`` and α uniformly in the full
    ``alpha_bits`` range above β.
    """

    def __init__(self, parameters: BlindingParameters, rng: RandomSource | None = None) -> None:
        self.parameters = parameters
        self._rng = default_rng(rng)

    def draw(self) -> CellBlinding:
        """Draw one cell's ``(α, β, ε)``."""
        p = self.parameters
        beta = self._rng.randrange(1, 1 << p.beta_bits)
        alpha = self._rng.randrange(beta + 1, 1 << p.alpha_bits)
        epsilon = 1 if self._rng.randbits(1) else -1
        return CellBlinding(alpha=alpha, beta=beta, epsilon=epsilon)

    def draw_eta(self) -> int:
        """The one-time η of eq. (17): a large positive random integer."""
        return self._rng.randrange(1 << (self.parameters.alpha_bits - 1),
                                   1 << self.parameters.alpha_bits)
