"""``repro.crypto.backend.powmod`` against its oracle, builtin ``pow``.

The contract is equality on every input — same integer or same
exception type — with the interpreter still alive afterwards: libgmp
aborts the process where Python raises, so every edge of the native
path's domain is walked here, on the native path and on the fallback.
"""

import copy
import ctypes
import pickle
import random
import sys
import threading
from collections import OrderedDict
from contextlib import nullcontext
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend
from repro.crypto.numtheory import modinv
from repro.crypto.paillier import EncryptedNumber, generate_keypair
from repro.crypto.parallel import SerialExecutor, ThreadExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import CryptoError
from repro.pisa.packed import PackedCoordinator
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.stp_server import MAX_STOCKED_SUS
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
    assert backend.describe().startswith("gmp ")
    assert backend.describe().endswith("(ctypes, fixed-base)")


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


# -- (f) the fixed-base entry: comb tables for h_n ------------------------------

COMB_LIMIT = 1 << backend._COMB_BITS


@pytest.fixture()
def tables():
    """A private table registry, so no test sees another's tables."""
    with mock.patch.object(backend, "_tables", OrderedDict()) as registry:
        yield registry


@pytest.fixture()
def builds():
    """Every comb table built, as ``mock`` call records."""
    if backend._gmp is None:
        pytest.skip("libgmp not found on this host")
    with mock.patch.object(
        backend._gmp, "build_comb", wraps=backend._gmp.build_comb
    ) as build:
        yield build


def fresh_base(bits=512, seed=0):
    """A marked base of a ``2·bits``-bit modulus, never used before."""
    rnd = random.Random(seed)
    modulus = rnd.getrandbits(2 * bits) | (1 << (2 * bits - 1)) | 1
    return backend.FixedBase(rnd.getrandbits(2 * bits) % modulus, modulus)


_comb_exponents = st.one_of(
    st.sampled_from([0, 1, 2, 3, COMB_LIMIT - 1, COMB_LIMIT, COMB_LIMIT + 1, -1, -2]),
    st.integers(min_value=2, max_value=COMB_LIMIT - 1),
    st.integers(min_value=COMB_LIMIT, max_value=1 << 1100),
    st.integers(min_value=-(1 << 300), max_value=-1),
)


@needs_native
def test_fixed_base_differential(tables):
    pk = generate_keypair(512, rng=DeterministicRandomSource("comb-key")).public_key
    h_n, n_sq = pk.h_n, pk.n_sq
    assert isinstance(h_n, backend.FixedBase) and h_n.modulus == n_sq
    for s in range(backend._BUILD_AFTER):  # past the threshold: the table serves
        backend.powmod(h_n, s + 2, n_sq)
    assert len(tables) == 1

    @settings(max_examples=300, deadline=None)
    @given(exponent=_comb_exponents, modulus=st.sampled_from([n_sq, n_sq + 2, pk.n, FLOOR + 1]))
    def check(exponent, modulus):
        expected = outcome(pow, int(h_n), exponent, modulus)
        assert outcome(backend.powmod, h_n, exponent, modulus) == expected
        # The same value without the marker takes mpz_powm.
        assert outcome(backend.powmod, int(h_n), exponent, modulus) == expected

    check()
    with fallback():
        check()


@needs_native
def test_comb_serves_only_its_domain(tables, builds):
    base = fresh_base(seed=1)
    m = base.modulus
    with mock.patch.object(backend._gmp, "comb_powmod", wraps=backend._gmp.comb_powmod) as comb:
        for e in range(2, 2 + backend._BUILD_AFTER):
            backend.powmod(base, e, m)
        assert builds.call_count == 1 and comb.call_count == 1  # the use that built it
        for args in ((base, 0, m), (base, 1, m), (base, COMB_LIMIT, m), (base, -1, m),
                     (base, 5, m + 2), (int(base), 5, m), (base, numpy.int64(5), m)):
            assert outcome(backend.powmod, *args) == outcome(pow, int(args[0]), *args[1:])
        assert comb.call_count == 1
        assert backend.powmod(base, COMB_LIMIT - 1, m) == pow(int(base), COMB_LIMIT - 1, m)
        assert comb.call_count == 2
    assert builds.call_count == 1


@needs_native
def test_a_key_below_the_threshold_builds_no_table(tables, builds):
    pk = generate_keypair(512, rng=DeterministicRandomSource("quiet-key")).public_key
    for s in range(backend._BUILD_AFTER - 1):
        assert backend.powmod(*pk.obfuscator_job(s + 2)) == pow(int(pk.h_n), s + 2, pk.n_sq)
    assert builds.call_count == 0 and len(tables) == 0
    pk.encrypt(5, rng=DeterministicRandomSource("one-more"))
    assert builds.call_count == 1 and len(tables) == 1


@needs_native
def test_live_tables_are_capped_least_recently_used_first(tables, builds):
    assert backend._MAX_TABLES >= MAX_STOCKED_SUS + 1  # the STP's SU keys and pk_G
    bases = [fresh_base(bits=128, seed=i) for i in range(backend._MAX_TABLES + 3)]
    with mock.patch.object(backend, "_BUILD_AFTER", 1):
        for base in bases:
            assert backend.powmod(base, 12345, base.modulus) == pow(int(base), 12345, base.modulus)
            assert len(tables) <= backend._MAX_TABLES
        assert builds.call_count == len(bases)
        # The three oldest went; touching a survivor keeps it alive.
        assert [key[0] for key in tables] == bases[3:]
        backend.powmod(bases[3], 7, bases[3].modulus)
        backend.powmod(bases[0], 7, bases[0].modulus)  # rebuilt, evicting bases[4]
    assert [key[0] for key in tables][-2:] == [bases[3], bases[0]]
    assert bases[4] not in [key[0] for key in tables]


@needs_native
def test_threads_across_the_build_match_serial(tables, builds):
    base = fresh_base(seed=2)
    m = base.modulus
    rnd = random.Random(29)
    batches = [[rnd.getrandbits(256) for _ in range(backend._BUILD_AFTER)] for _ in range(4)]
    expected = [[pow(int(base), e, m) for e in batch] for batch in batches]
    results = [None] * len(batches)

    def run(i):
        results[i] = [backend.powmod(base, e, m) for e in batches[i]]

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
    assert builds.call_count == 1 and len(tables) == 1


@needs_native
def test_a_comb_evaluation_never_lets_go_of_the_gil(tables):
    """A thread that drops the GIL of its own accord takes it straight back,
    so one that drops it once an evaluation starves a thread waiting for it:
    an STP connection thread with a ``ping`` in hand waited out over a
    thousand fill obfuscators.  Every call of an evaluation is a ``PyDLL``'s;
    the ``CDLL``'s, which release the GIL, are not called at all."""
    gmp = backend._gmp
    if not gmp.fixed_base:
        pytest.skip("the comb's calls did not bind on this host")
    base = fresh_base(seed=4)
    comb = gmp.build_comb(base)
    for function in (gmp.mul, gmp.tdiv_r, gmp.set, gmp.held_export):
        assert function._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    released = {name: mock.DEFAULT for name in ("import_", "export", "powm", "invert")}
    with mock.patch.multiple(gmp, **released) as cdll:
        e = COMB_LIMIT - 3
        assert gmp.comb_powmod(comb, e) == pow(int(base), e, base.modulus)
    assert not any(function.called for function in cdll.values())


def test_the_marker_is_the_int_it_holds():
    base = fresh_base(bits=64, seed=3)
    assert base == int(base) and hash(base) == hash(int(base))
    assert type(pow(base, 3, base.modulus)) is int
    for clone in (copy.deepcopy(base), pickle.loads(pickle.dumps(base))):
        assert type(clone) is backend.FixedBase
        assert (clone, clone.modulus) == (base, base.modulus)
