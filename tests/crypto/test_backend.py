"""``repro.crypto.backend.powmod`` against its oracle, builtin ``pow``.

The contract is equality on every input — same integer or same
exception type — with the interpreter still alive afterwards: libgmp
aborts the process where Python raises, so every edge of the native
path's domain is walked here, on the native path and on the fallback.
"""

import random
import sys
import threading
from contextlib import nullcontext
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend
from repro.crypto.numtheory import modinv
from repro.crypto.paillier import EncryptedNumber
from repro.crypto.parallel import SerialExecutor, ThreadExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import CryptoError
from repro.pisa.packed import PackedCoordinator
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.two_server import TwoServerCoordinator
from tests.pisa import test_golden_transcripts as golden

FLOOR = backend._NATIVE_FLOOR
golden_scenario = golden.golden_scenario  # the golden module's own fixture

needs_native = pytest.mark.skipif(
    backend.describe() == "python", reason="libgmp not found on this host"
)


def fallback():
    """The loader found nothing: a test seam, not an option."""
    return mock.patch.object(backend, "_gmp", None)


def outcome(function, *args):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", function(*args)
    except Exception as exc:  # the contract is about *which* exception
        return "raised", type(exc)


# -- (a) differential -------------------------------------------------------------

_sized = st.sampled_from([1, 8, 16, 64, 255, 256, 257, 512, 1024, 2048, 4096]).flatmap(
    lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)
)
_bases = st.one_of(
    _sized,
    _sized.map(lambda v: -v),
    st.sampled_from([0, 1, FLOOR, True, 2.0, "3", None, numpy.int64(3)]),
)
_exponents = st.one_of(
    _sized,
    st.sampled_from([0, 1, 2, -1, -2, -(1 << 300), True, 1.5, None, numpy.int64(5)]),
)
_moduli = st.one_of(
    _sized,
    _sized.map(lambda v: v | FLOOR),  # at or above the cutoff, odd and even
    _sized.map(lambda v: (v | FLOOR) << 1),  # even
    st.sampled_from(
        # never None: that is two-argument pow, an unbounded base ** exponent
        [0, 1, 2, -1, -FLOOR, FLOOR - 1, FLOOR, FLOOR + 1, (1 << 16) + 1, False, 7.0,
         numpy.int64(97)]
    ),
)


@pytest.mark.parametrize("native", [True, False], ids=["native", "fallback"])
def test_differential(native):
    @settings(max_examples=300 if native else 100, deadline=None)
    @given(base=_bases, exponent=_exponents, modulus=_moduli)
    def check(base, exponent, modulus):
        assert outcome(backend.powmod, base, exponent, modulus) == outcome(
            pow, base, exponent, modulus
        )

    with nullcontext() if native else fallback():
        check()


@pytest.mark.parametrize(
    "args",
    [
        (5, 3, 0),  # zero modulus: GMP divides by zero
        (6, -1, FLOOR * 3),  # gcd ≠ 1: GMP divides by zero
        (0, -1, FLOOR + 1),
        (5, -2, FLOOR + 1),  # native: mpz_invert, then mpz_powm by 2
        (5, 3, (1 << 16) + 1),  # 16-bit modulus
        (-5, 3, FLOOR + 1),  # negative base
        (numpy.int64(5), 3, FLOOR + 1),
        (5, 3, -(FLOOR + 1)),
        (FLOOR * 7 + 3, 0, FLOOR + 1),
        (FLOOR * 7 + 3, FLOOR - 1, FLOOR),  # base ≥ modulus, even modulus
    ],
)
def test_never_worse_than_pow_at_failing(args):
    assert outcome(backend.powmod, *args) == outcome(pow, *args)


@needs_native
def test_native_path_is_taken_inside_its_domain():
    """The differential would pass vacuously if everything fell through."""
    with mock.patch.object(backend._gmp, "powmod", wraps=backend._gmp.powmod) as native:
        assert backend.powmod(3, FLOOR, FLOOR + 1) == pow(3, FLOOR, FLOOR + 1)
        assert backend.powmod(2, -1, FLOOR + 1) == pow(2, -1, FLOOR + 1)
        assert backend.powmod(2, -(1 << 100), FLOOR + 1) == pow(2, -(1 << 100), FLOOR + 1)
        assert native.call_count == 3
        backend.powmod(3, 1, FLOOR + 1)
        backend.powmod(3, FLOOR, FLOOR - 1)
        backend.powmod(True, FLOOR, FLOOR + 1)
        assert native.call_count == 3
    assert backend.describe().startswith("gmp ") and backend.describe().endswith("(ctypes)")


# -- (b) a hostile ciphertext stays a typed error ---------------------------------


@needs_native
def test_non_coprime_operands_raise_crypto_error(keypair):
    pk, p = keypair.public_key, keypair.private_key.p
    assert pk.n_sq >= FLOOR
    with pytest.raises(CryptoError):
        modinv(p, pk.n_sq)
    honest = pk.encrypt(7, rng=DeterministicRandomSource("hostile"))
    with pytest.raises(CryptoError):
        honest.subtract(EncryptedNumber(pk, p))
    with pytest.raises(CryptoError):
        EncryptedNumber(pk, p).scalar_mul(-1)


# -- (c) threads really overlap inside libgmp -------------------------------------


def test_threads_get_their_own_scratch():
    rnd = random.Random(19)

    def job():
        bits = rnd.choice([256, 320, 512, 1024])
        modulus = rnd.getrandbits(bits) | (1 << (bits - 1)) | 1
        exponent = rnd.choice([-1, rnd.getrandbits(bits // 4) + 2])
        return rnd.getrandbits(bits), exponent, modulus

    batches = [[job() for _ in range(2000)] for _ in range(4)]  # > cores
    expected = [[outcome(pow, *j) for j in batch] for batch in batches]
    results = [None] * len(batches)

    def run(i):
        results[i] = [outcome(backend.powmod, *j) for j in batches[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


# -- (d) the fallback: a host without libgmp --------------------------------------


class TestFallback:
    def test_describe_says_python(self):
        with fallback():
            assert backend.describe() == "python"
            assert backend.powmod(3, FLOOR, FLOOR + 1) == pow(3, FLOOR, FLOOR + 1)

    def test_golden_digests(self, golden_scenario):
        """Same integers is the whole correctness argument: the pins
        ``tests/pisa/test_golden_transcripts.py`` holds on whatever the
        host has are reproduced here with builtin ``pow`` alone."""
        env, seed = golden_scenario.environment, golden.SEED
        with fallback():
            cluster = golden.build_cluster(golden_scenario, 2)
            try:
                assert golden.run_session(cluster, golden_scenario) == (
                    golden.BASIC_DIGEST, golden.DECISIONS)
            finally:
                cluster.close()

            single = PisaCoordinator(env, key_bits=256, rng=DeterministicRandomSource(seed))
            single.sdc._clock = golden.frozen_clock
            assert golden.run_session(single, golden_scenario, passes=2) == (
                golden.REPEAT_DIGEST, golden.DECISIONS * 2)

            two_server = TwoServerCoordinator(
                env, key_bits=256, rng=DeterministicRandomSource(seed))
            two_server.front._clock = golden.frozen_clock
            assert golden.run_session(two_server, golden_scenario) == (
                golden.TWO_SERVER_DIGEST, golden.DECISIONS)

            packed = PackedCoordinator(
                env, key_bits=512, rng=DeterministicRandomSource(seed),
                clock=golden.frozen_clock)
            assert golden.run_session(packed, golden_scenario) == (
                golden.PACKED_DIGEST, golden.DECISIONS)


# -- (e) one batch over more threads than cores ----------------------------------


def test_threads_match_serial_on_the_native_sizes():
    rnd = random.Random(23)
    modulus = rnd.getrandbits(1024) | (1 << 1023) | 1
    jobs = [(rnd.getrandbits(1024), rnd.getrandbits(512) | 2, modulus) for _ in range(64)]
    with ThreadExecutor(4) as executor:
        threaded = executor.pow_many(jobs)
    assert threaded == SerialExecutor().pow_many(jobs) == [pow(*job) for job in jobs]
