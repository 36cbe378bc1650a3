"""Property-based tests for the Paillier invariants (DESIGN.md §6.1).

Besides the homomorphisms: the short fixed-base randomness — every
obfuscator ``h_n^s`` is an ``n``-th residue (``y^λ ≡ 1 mod n²``), ``h_n``
is a function of ``n`` alone, every nonce ``s`` is below
``2^NONCE_EXPONENT_BITS`` — and the authority's bound on a batched
nonce request, which holds before anything is drawn.
"""

import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import paillier
from repro.crypto.paillier import ObfuscatorPool, PaillierPublicKey, generate_keypair
from repro.crypto.rand import NONCE_EXPONENT_BITS, DeterministicRandomSource
from repro.crypto.serialization import (
    decode_int,
    decode_public_key,
    encode_int,
    encode_public_key,
)
from repro.errors import SerializationError
from repro.netd.remote import AuthorityServer
from repro.netd.wire import MAX_EXPONENTS_PER_FRAME, decode_exponents_response

# One module-level keypair: hypothesis calls the test many times and key
# generation must not dominate.
_RNG = DeterministicRandomSource("paillier-props")
_KEYPAIR = generate_keypair(256, rng=_RNG)
_PK = _KEYPAIR.public_key
_SK = _KEYPAIR.private_key

# Stay inside the 60-bit paper range so sums/products cannot overflow the
# 256-bit test modulus' signed half-range.
values = st.integers(min_value=-(2**60), max_value=2**60)
small_scalars = st.integers(min_value=-(2**20), max_value=2**20)

relaxed = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@relaxed
@given(value=values)
def test_roundtrip(value):
    assert _SK.decrypt(_PK.encrypt(value, rng=_RNG)) == value


@relaxed
@given(a=values, b=values)
def test_homomorphic_addition(a, b):
    ct = _PK.encrypt(a, rng=_RNG) + _PK.encrypt(b, rng=_RNG)
    assert _SK.decrypt(ct) == a + b


@relaxed
@given(a=values, b=values)
def test_homomorphic_subtraction(a, b):
    ct = _PK.encrypt(a, rng=_RNG) - _PK.encrypt(b, rng=_RNG)
    assert _SK.decrypt(ct) == a - b


@relaxed
@given(a=values, k=small_scalars)
def test_scalar_multiplication(a, k):
    assert _SK.decrypt(k * _PK.encrypt(a, rng=_RNG)) == k * a


@relaxed
@given(a=values, b=values)
def test_plaintext_addition_matches_encrypted(a, b):
    via_plain = _PK.encrypt(a, rng=_RNG) + b
    assert _SK.decrypt(via_plain) == a + b


@relaxed
@given(a=values)
def test_rerandomization_invariant(a):
    ct = _PK.encrypt(a, rng=_RNG)
    refreshed = ct.rerandomize(_RNG)
    assert refreshed.ciphertext != ct.ciphertext
    assert _SK.decrypt(refreshed) == a


@relaxed
@given(a=values, b=values, k=small_scalars)
def test_affine_combination(a, b, k):
    """D(k⊗E(a) ⊕ E(b)) == k·a + b — the shape of every PISA step."""
    ct = _PK.encrypt(a, rng=_RNG) * k + _PK.encrypt(b, rng=_RNG)
    assert _SK.decrypt(ct) == k * a + b


# -- short fixed-base randomness ---------------------------------------------------

nonces = st.integers(min_value=0, max_value=2**NONCE_EXPONENT_BITS - 1)
seeds = st.integers(min_value=0, max_value=2**32)


@relaxed
@given(s=nonces)
def test_every_obfuscator_is_an_nth_residue(s):
    """``y = h_n^s`` satisfies ``y^λ ≡ 1 (mod n²)``: it decrypts to zero."""
    y = pow(*_PK.obfuscator_job(s))
    assert pow(y, _SK.lam, _PK.n_sq) == 1
    assert _SK.decrypt(_PK.encrypt_with_obfuscator(0, y)) == 0


@relaxed
@given(seed=seeds, count=st.integers(min_value=0, max_value=64))
def test_every_drawn_nonce_is_short(seed, count):
    rng = DeterministicRandomSource(seed)
    drawn = rng.random_exponents(count) + [_PK.random_nonce(rng) for _ in range(4)]
    assert all(0 <= s < 1 << NONCE_EXPONENT_BITS for s in drawn)


@relaxed
@given(seed=seeds, count=st.integers(min_value=1, max_value=8))
def test_pooled_obfuscators_are_h_n_to_the_drawn_nonces(seed, count):
    pool = ObfuscatorPool(_PK, rng=DeterministicRandomSource(seed))
    pool.refill(count)
    expected = DeterministicRandomSource(seed).random_exponents(count)
    assert [pool.take() for _ in range(count)] == [
        pow(_PK.h_n, s, _PK.n_sq) for s in expected
    ]


@relaxed
@given(seed=seeds)
def test_h_n_survives_a_codec_round_trip(seed):
    pk = generate_keypair(64, rng=DeterministicRandomSource(seed)).public_key
    decoded = decode_public_key(encode_public_key(pk))
    assert decoded.h_n == pk.h_n
    assert 1 < pk.h_n < pk.n_sq


def test_h_n_is_the_same_in_another_process():
    """No draw and no per-process state: a fresh interpreter, with a
    different hash seed, derives the same ``h_n`` from ``n``."""
    moduli = [_PK.n, generate_keypair(512, rng=DeterministicRandomSource(5)).public_key.n]
    script = (
        "import sys; from repro.crypto.paillier import PaillierPublicKey; "
        "print(*(PaillierPublicKey(int(n)).h_n for n in sys.argv[1:]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, moduli)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "12345"},
    ).stdout.split()
    assert [int(h) for h in out] == [PaillierPublicKey(n).h_n for n in moduli]


def test_a_decoded_key_pays_for_h_n_only_when_it_encrypts():
    """A key decoded per frame (to check or carry ciphertexts) derives
    no ``h_n``; a key that encrypts derives it once and caches it."""
    raw = encode_public_key(_PK)
    with mock.patch.object(paillier, "_fixed_base", wraps=paillier._fixed_base) as derive:
        keys = [decode_public_key(raw) for _ in range(50)]
        for key in keys:
            assert key == _PK and hash(key) == hash(_PK)
            ct = paillier.EncryptedNumber(key, 12345).add_plain(3).scalar_mul(-1)
            assert 0 < ct.ciphertext < key.n_sq
        assert derive.call_count == 0
        for _ in range(3):
            keys[0].encrypt(7, rng=_RNG)
        assert derive.call_count == 1


# -- the authority's bound on a batched nonce request -------------------------------


@relaxed
@given(
    count=st.one_of(
        st.just(0),
        st.integers(min_value=MAX_EXPONENTS_PER_FRAME + 1, max_value=2**80),
    )
)
def test_authority_refuses_an_out_of_range_count_before_drawing(count):
    """A hostile peer's count outside ``[1, MAX_EXPONENTS_PER_FRAME]`` is
    refused, and the broker's stream has not moved."""
    rng = DeterministicRandomSource("hostile")
    with pytest.raises(SerializationError):
        AuthorityServer(rng)._dispatch("rand_exponents", encode_int(count))
    assert rng.randbits(64) == DeterministicRandomSource("hostile").randbits(64)


@relaxed
@given(
    payload=st.one_of(
        st.binary(max_size=12),
        st.integers(min_value=1, max_value=64).map(encode_int),
    )
)
def test_authority_draws_exactly_the_count_it_accepts(payload):
    """Any payload either is refused with nothing drawn, or is one
    in-range count answered with that many nonces — the local draw's."""
    rng = DeterministicRandomSource("hostile")
    try:
        kind, reply = AuthorityServer(rng)._dispatch("rand_exponents", payload)
    except SerializationError:
        drawn = []
    else:
        count = decode_int(payload, 0)[0]
        assert kind == "ok"
        drawn = list(decode_exponents_response(reply, count))
    reference = DeterministicRandomSource("hostile")
    assert drawn == reference.random_exponents(len(drawn))
    assert rng.randbits(64) == reference.randbits(64)
