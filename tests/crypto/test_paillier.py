"""Unit tests for the Paillier cryptosystem."""

import pytest

from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
    hom_sum,
)
from repro.errors import (
    ConfigurationError,
    DecryptionError,
    EncodingRangeError,
    KeyMismatchError,
)


class TestKeyGeneration:
    def test_modulus_bit_length(self, keypair):
        assert keypair.public_key.key_bits == 256
        assert keypair.key_bits == 256

    def test_default_generator(self, keypair):
        assert keypair.public_key.g == keypair.public_key.n + 1

    def test_too_small_key_raises(self, fresh_rng):
        with pytest.raises(ConfigurationError):
            generate_keypair(8, rng=fresh_rng)

    def test_private_key_rejects_wrong_factors(self, keypair):
        pk = keypair.public_key
        with pytest.raises(ConfigurationError):
            PaillierPrivateKey(pk, 3, 5)

    def test_public_key_equality_and_hash(self, keypair, second_keypair):
        pk = keypair.public_key
        same = PaillierPublicKey(pk.n)
        assert pk == same and hash(pk) == hash(same)
        assert pk != second_keypair.public_key


class TestEncryptDecrypt:
    @pytest.mark.parametrize("value", [0, 1, -1, 42, -42, 2**59, -(2**59)])
    def test_roundtrip(self, keypair, fresh_rng, value):
        ct = keypair.public_key.encrypt(value, rng=fresh_rng)
        assert keypair.private_key.decrypt(ct) == value

    def test_probabilistic_encryption(self, keypair, fresh_rng):
        pk = keypair.public_key
        a = pk.encrypt(5, rng=fresh_rng)
        b = pk.encrypt(5, rng=fresh_rng)
        assert a.ciphertext != b.ciphertext

    def test_crt_matches_textbook(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        for value in (0, 7, 12345, pk.n - 1):
            ct = pk.raw_encrypt(value, rng=fresh_rng)
            assert sk.raw_decrypt(ct) == sk.raw_decrypt_textbook(ct)

    def test_out_of_range_plaintext_raises(self, keypair, fresh_rng):
        half = keypair.public_key.n // 2
        with pytest.raises(EncodingRangeError):
            keypair.public_key.encrypt(half + 1, rng=fresh_rng)

    def test_decrypt_wrong_key_raises(self, keypair, second_keypair, fresh_rng):
        ct = keypair.public_key.encrypt(1, rng=fresh_rng)
        with pytest.raises(KeyMismatchError):
            second_keypair.private_key.decrypt(ct)

    def test_raw_decrypt_range_check(self, keypair):
        with pytest.raises(DecryptionError):
            keypair.private_key.raw_decrypt(0)
        with pytest.raises(DecryptionError):
            keypair.private_key.raw_decrypt(keypair.public_key.n_sq + 1)

    def test_encrypt_zero_decrypts_to_zero(self, keypair, fresh_rng):
        ct = keypair.public_key.encrypt_zero(rng=fresh_rng)
        assert keypair.private_key.decrypt(ct) == 0


class TestHomomorphicOperations:
    def test_addition(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(20, rng=fresh_rng) + pk.encrypt(22, rng=fresh_rng)
        assert sk.decrypt(ct) == 42

    def test_addition_with_negative(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(-50, rng=fresh_rng) + pk.encrypt(8, rng=fresh_rng)
        assert sk.decrypt(ct) == -42

    def test_subtraction(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(100, rng=fresh_rng) - pk.encrypt(58, rng=fresh_rng)
        assert sk.decrypt(ct) == 42

    def test_subtraction_goes_negative(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(5, rng=fresh_rng) - pk.encrypt(9, rng=fresh_rng)
        assert sk.decrypt(ct) == -4

    @pytest.mark.parametrize("scalar", [0, 1, -1, 3, -7, 1000])
    def test_scalar_multiplication(self, keypair, fresh_rng, scalar):
        pk, sk = keypair.public_key, keypair.private_key
        ct = scalar * pk.encrypt(11, rng=fresh_rng)
        assert sk.decrypt(ct) == 11 * scalar

    def test_negation(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        assert sk.decrypt(-pk.encrypt(99, rng=fresh_rng)) == -99

    def test_plaintext_addition(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(40, rng=fresh_rng)
        assert sk.decrypt(ct + 2) == 42
        assert sk.decrypt(ct - 50) == -10
        assert sk.decrypt(2 + ct) == 42

    def test_cross_key_operations_raise(self, keypair, second_keypair, fresh_rng):
        a = keypair.public_key.encrypt(1, rng=fresh_rng)
        b = second_keypair.public_key.encrypt(1, rng=fresh_rng)
        with pytest.raises(KeyMismatchError):
            a + b
        with pytest.raises(KeyMismatchError):
            a - b

    def test_operator_type_errors(self, keypair, fresh_rng):
        ct = keypair.public_key.encrypt(1, rng=fresh_rng)
        with pytest.raises(TypeError):
            ct + 1.5
        with pytest.raises(TypeError):
            ct * 2.0

    def test_hom_sum(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        cts = [pk.encrypt(i, rng=fresh_rng) for i in range(10)]
        assert sk.decrypt(hom_sum(cts)) == sum(range(10))

    def test_hom_sum_empty_raises(self):
        with pytest.raises(ValueError):
            hom_sum([])


class TestRerandomization:
    def test_preserves_plaintext_changes_ciphertext(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(1234, rng=fresh_rng)
        refreshed = ct.rerandomize(fresh_rng)
        assert refreshed.ciphertext != ct.ciphertext
        assert sk.decrypt(refreshed) == 1234

    def test_repeated_refresh(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(-77, rng=fresh_rng)
        for _ in range(5):
            ct = ct.rerandomize(fresh_rng)
        assert sk.decrypt(ct) == -77


class TestEncryptedNumberIdentity:
    def test_equality_and_hash(self, keypair, fresh_rng):
        pk = keypair.public_key
        ct = pk.encrypt(5, rng=fresh_rng)
        clone = EncryptedNumber(pk, ct.ciphertext)
        assert ct == clone and hash(ct) == hash(clone)
        assert ct != pk.encrypt(5, rng=fresh_rng)  # fresh randomness

    def test_repr_mentions_bits(self, keypair, fresh_rng):
        assert "256" in repr(keypair.public_key.encrypt(0, rng=fresh_rng))


class TestObfuscatorPool:
    def test_refill_and_take(self, keypair, fresh_rng):
        from repro.crypto.paillier import ObfuscatorPool

        pool = ObfuscatorPool(keypair.public_key, rng=fresh_rng)
        pool.refill(5)
        assert len(pool) == 5
        pool.take()
        assert len(pool) == 4

    def test_ensure_tops_up(self, keypair, fresh_rng):
        from repro.crypto.paillier import ObfuscatorPool

        pool = ObfuscatorPool(keypair.public_key, rng=fresh_rng)
        pool.refill(2)
        pool.ensure(6)
        assert len(pool) == 6
        pool.ensure(3)  # already above target: no change
        assert len(pool) == 6

    def test_take_from_empty_refills_inline(self, keypair, fresh_rng):
        from repro.crypto.paillier import ObfuscatorPool

        pool = ObfuscatorPool(keypair.public_key, rng=fresh_rng)
        assert pool.take() > 0

    def test_stocked_factors_leave_in_draw_order(self, keypair):
        """A pre-stocked pool hands out what inline takes on the same seed do."""
        from repro.crypto.paillier import ObfuscatorPool
        from repro.crypto.rand import DeterministicRandomSource

        stocked = ObfuscatorPool(keypair.public_key, rng=DeterministicRandomSource("pool"))
        inline = ObfuscatorPool(keypair.public_key, rng=DeterministicRandomSource("pool"))
        stocked.refill(3)
        assert [stocked.take() for _ in range(3)] == [inline.take() for _ in range(3)]

    def test_negative_refill_rejected(self, keypair, fresh_rng):
        from repro.crypto.paillier import ObfuscatorPool

        pool = ObfuscatorPool(keypair.public_key, rng=fresh_rng)
        with pytest.raises(ValueError):
            pool.refill(-1)

    def test_rerandomize_with_preserves_plaintext(self, keypair, fresh_rng):
        from repro.crypto.paillier import ObfuscatorPool

        pk, sk = keypair.public_key, keypair.private_key
        pool = ObfuscatorPool(pk, rng=fresh_rng)
        pool.refill(1)
        ct = pk.encrypt(-4321, rng=fresh_rng)
        refreshed = ct.rerandomize_with(pool.take())
        assert refreshed.ciphertext != ct.ciphertext
        assert sk.decrypt(refreshed) == -4321
