"""Unit tests for repro.crypto.rand."""

import pytest

from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.rand import (
    NONCE_EXPONENT_BITS,
    DeterministicRandomSource,
    SystemRandomSource,
    default_rng,
)


class TestDeterministicRandomSource:
    def test_same_seed_same_stream(self):
        a = DeterministicRandomSource(42)
        b = DeterministicRandomSource(42)
        assert [a.randbits(37) for _ in range(20)] == [b.randbits(37) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = DeterministicRandomSource(1)
        b = DeterministicRandomSource(2)
        assert [a.randbits(64) for _ in range(4)] != [b.randbits(64) for _ in range(4)]

    def test_accepts_str_and_bytes_seeds(self):
        assert DeterministicRandomSource("x").randbits(8) == DeterministicRandomSource(
            b"x"
        ).randbits(8)

    def test_fork_is_independent(self):
        base = DeterministicRandomSource(5)
        fork_a = base.fork("a")
        fork_b = base.fork("b")
        assert fork_a.randbits(64) != fork_b.randbits(64)
        # Forking does not perturb the parent stream.
        fresh = DeterministicRandomSource(5)
        assert base.randbits(64) == fresh.randbits(64)

    def test_randbits_zero(self):
        assert DeterministicRandomSource(0).randbits(0) == 0

    def test_randbits_negative_raises(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).randbits(-1)

    def test_randbits_within_range(self):
        rng = DeterministicRandomSource(9)
        for bits in (1, 8, 63, 257):
            for _ in range(10):
                assert 0 <= rng.randbits(bits) < (1 << bits)


class TestRandomSourceHelpers:
    def test_randbelow_bounds(self):
        rng = DeterministicRandomSource(3)
        for _ in range(200):
            assert 0 <= rng.randbelow(17) < 17

    def test_randbelow_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).randbelow(0)

    def test_randrange_bounds(self):
        rng = DeterministicRandomSource(3)
        values = {rng.randrange(10, 15) for _ in range(200)}
        assert values == {10, 11, 12, 13, 14}

    def test_randrange_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).randrange(5, 5)

    def test_rand_odd_properties(self):
        rng = DeterministicRandomSource(4)
        for bits in (8, 16, 64):
            value = rng.rand_odd(bits)
            assert value % 2 == 1
            assert value.bit_length() == bits

    def test_rand_odd_too_small(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).rand_odd(1)

    def test_choice(self):
        rng = DeterministicRandomSource(4)
        seq = ["a", "b", "c"]
        assert {rng.choice(seq) for _ in range(50)} == set(seq)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).choice([])


class _CountingSource(DeterministicRandomSource):
    raw_draws = 0

    def randbits(self, bits):
        self.raw_draws += 1
        return super().randbits(bits)


class TestRandomExponents:
    """The batched nonce draw is one ``randbits(NONCE_EXPONENT_BITS)`` per
    nonce, in order — what successive ``random_nonce`` calls consume too,
    whatever the key's modulus: no draw is rejected or reduced by it."""

    @pytest.mark.parametrize(
        "modulus",
        [
            # just above a power of two: a unit sampler would reject ~half
            (1 << 64) + 1,
            # 3·5·7: most of [1, 105) shares a factor with it
            105,
        ],
    )
    def test_batch_equals_successive_random_nonce(self, modulus):
        batched, reference, keyed = (_CountingSource(12) for _ in range(3))
        exponents = batched.random_exponents(50)
        assert batched.raw_draws == 50
        assert exponents == [reference.randbits(NONCE_EXPONENT_BITS) for _ in range(50)]
        pk = PaillierPublicKey(modulus)
        assert exponents == [pk.random_nonce(keyed) for _ in range(50)]
        assert all(0 <= s < 1 << NONCE_EXPONENT_BITS for s in exponents)
        position = batched.randbits(64)
        assert position == reference.randbits(64) == keyed.randbits(64)

    def test_empty_batch_draws_nothing(self):
        rng = DeterministicRandomSource(12)
        assert rng.random_exponents(0) == []
        assert rng.randbits(64) == DeterministicRandomSource(12).randbits(64)


class TestSystemSource:
    def test_randbits_range(self):
        rng = SystemRandomSource()
        assert 0 <= rng.randbits(16) < 1 << 16

    def test_default_rng_passthrough(self):
        custom = DeterministicRandomSource(1)
        assert default_rng(custom) is custom
        assert isinstance(default_rng(None), SystemRandomSource)
