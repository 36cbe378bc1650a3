"""Unit and property tests for the eq. (14) blinding factors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import BlindingError
from repro.pisa.blinding import (
    MIN_ALPHA_BITS,
    BlindingFactory,
    BlindingParameters,
    CellBlinding,
)


def fake_key(bits: int) -> PaillierPublicKey:
    """A structurally valid public key of a given size (no prime check
    needed for parameter derivation)."""
    return PaillierPublicKey((1 << (bits - 1)) + 15)


class TestParameterDerivation:
    def test_full_alpha_when_room(self):
        params = BlindingParameters.for_key(fake_key(2048), indicator_bound=1 << 66)
        assert params.alpha_bits == 100
        assert params.beta_bits == 99

    def test_clamped_alpha_on_small_key(self):
        # 256-bit key: headroom = 256 // 2 − 3 − 67 = 58 bits < the 100 default.
        params = BlindingParameters.for_key(fake_key(256), indicator_bound=1 << 66)
        assert params.alpha_bits == 58
        assert MIN_ALPHA_BITS <= params.alpha_bits < 100
        # The deployments' 66-bit bound leaves 59 at 256 bits and is refused
        # below 202 bits.
        assert BlindingParameters.for_key(fake_key(256), (1 << 66) - 1).alpha_bits == 59
        assert BlindingParameters.for_key(fake_key(202), (1 << 66) - 1).alpha_bits == 32
        with pytest.raises(BlindingError):
            BlindingParameters.for_key(fake_key(200), (1 << 66) - 1)

    def test_unsafe_configuration_refused(self):
        with pytest.raises(BlindingError):
            BlindingParameters.for_key(fake_key(128), indicator_bound=1 << 100)

    def test_bad_bound_refused(self):
        with pytest.raises(BlindingError):
            BlindingParameters.for_key(fake_key(2048), indicator_bound=0)

    def test_safety_inequality(self):
        """α_max · bound + β_max < 2^(⌊n_bits/2⌋−1)/2 — half the smallest
        prime ``generate_keypair`` draws — for the derived widths."""
        bound = (1 << 66) - 1
        for bits in (202, 256, 257, 512, 2048):
            key = fake_key(bits)
            params = BlindingParameters.for_key(key, bound)
            worst = ((1 << params.alpha_bits) - 1) * bound + (1 << params.beta_bits) - 1
            assert params.max_blinded == worst
            assert worst < (1 << (bits // 2 - 1)) // 2 < key.n // 2, bits


class TestFactory:
    def test_draw_invariants(self):
        params = BlindingParameters.for_key(fake_key(1024), indicator_bound=1 << 66)
        factory = BlindingFactory(params, rng=DeterministicRandomSource(1))
        for _ in range(200):
            cell = factory.draw()
            assert 1 <= cell.beta < cell.alpha  # paper: α > β ≥ 1
            assert cell.alpha < 1 << params.alpha_bits
            assert cell.epsilon in (-1, 1)

    def test_epsilon_is_balanced(self):
        params = BlindingParameters.for_key(fake_key(1024), indicator_bound=1 << 66)
        factory = BlindingFactory(params, rng=DeterministicRandomSource(2))
        signs = [factory.draw().epsilon for _ in range(400)]
        positives = signs.count(1)
        assert 120 < positives < 280  # crude two-sided check

    def test_eta_large_and_positive(self):
        params = BlindingParameters.for_key(fake_key(1024), indicator_bound=1 << 66)
        factory = BlindingFactory(params, rng=DeterministicRandomSource(3))
        eta = factory.draw_eta()
        assert eta >= 1 << (params.alpha_bits - 1)


class TestSignPreservation:
    """DESIGN.md invariant 3: sign(ε·V) == sign'(I) for all I in range."""

    @settings(max_examples=300, deadline=None)
    @given(indicator=st.integers(min_value=-(1 << 66), max_value=1 << 66))
    def test_sign_recoverable(self, indicator):
        params = BlindingParameters.for_key(fake_key(512), indicator_bound=1 << 66)
        factory = BlindingFactory(params, rng=DeterministicRandomSource(indicator & 0xFFFF))
        cell = factory.draw()
        v = cell.blind_value(indicator)
        assert v != 0  # V can never be exactly zero (eq. (15) is total)
        x = 1 if v > 0 else -1
        q = cell.epsilon * x - 1  # eq. (16) in plaintext
        assert q == (0 if indicator > 0 else -2)  # eq. (13)

    def test_boundary_zero_maps_to_deny(self):
        """I = 0 must produce Q = −2 (budget exactly exhausted → deny)."""
        params = BlindingParameters.for_key(fake_key(512), indicator_bound=1 << 66)
        factory = BlindingFactory(params, rng=DeterministicRandomSource(0))
        for _ in range(50):
            cell = factory.draw()
            v = cell.blind_value(0)
            x = 1 if v > 0 else -1
            assert cell.epsilon * x - 1 == -2
