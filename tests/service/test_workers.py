"""The executors: correctness, chunking, teardown and protocol equivalence."""

import random
import sys
import threading
from collections import OrderedDict, UserList
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend, parallel
from repro.crypto.parallel import SerialExecutor, ThreadExecutor, default_executor
from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.protocol import PisaCoordinator

TEST_KEY_BITS = 256
FLOOR = backend._NATIVE_FLOOR


def outcome(function, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return "ok", function(*args)
    except Exception as exc:  # the contract is about *which* exception
        return "raised", type(exc), str(exc)


class TestSerialExecutor:
    def test_matches_builtin_pow(self):
        executor = SerialExecutor()
        jobs = [(3, 5, 7), (2, 10, 1000), (123456789, 3, 97)]
        assert executor.pow_many(jobs) == [pow(*job) for job in jobs]
        assert executor.jobs_executed == 3

    def test_default_executor_is_serial(self):
        assert isinstance(default_executor(None), SerialExecutor)

    def test_default_executor_passthrough(self):
        executor = SerialExecutor()
        assert default_executor(executor) is executor

    @pytest.mark.parametrize(
        "make, batch, calls",
        [(SerialExecutor, 1, 10_000), (lambda: ThreadExecutor(2), 2, 1_000)],
        ids=["serial", "threads"],
    )
    def test_job_count_is_exact_under_threads(self, make, batch, calls):
        """The process-wide instance is shared by scatter threads and the
        broker's idle fill; a lost update would move the per-cell job
        pins of ``tests/pisa/test_kernel.py``.  A thread executor's
        two-job batches go through its pool.

        The batch is a ``UserList`` because its ``len()`` runs Python
        code: CPython 3.11 inlines ``len(list)`` without a thread-switch
        check, which hides the race there and nowhere else.
        """
        executor = make()
        threads, jobs = 16, UserList([(3, 5, 7)] * batch)
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait(timeout=60)
            for _ in range(calls):
                executor.pow_many(jobs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if isinstance(executor, ThreadExecutor):
                executor.close()
        assert not any(worker.is_alive() for worker in workers)
        assert executor.jobs_executed == threads * calls * batch


_exponents = st.one_of(
    st.sampled_from([-2, -1, 0, 1]),
    st.integers(min_value=2, max_value=1 << 64),
    st.integers(min_value=1 << 255, max_value=1 << 1024),
)
_moduli = st.one_of(
    st.integers(min_value=1, max_value=FLOOR - 1),
    st.integers(min_value=FLOOR, max_value=FLOOR << 256),
)
_jobs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 1100), _exponents, _moduli),
    max_size=40,
)


class TestThreadExecutor:
    @settings(max_examples=150, deadline=None)
    @given(threads=st.integers(min_value=1, max_value=4), jobs=_jobs)
    def test_differential_against_pow(self, threads, jobs):
        with ThreadExecutor(threads) as executor:
            assert outcome(executor.pow_many, jobs) == outcome(
                lambda: [pow(*job) for job in jobs]
            )
            assert executor.jobs_executed == len(jobs)

    def test_first_failing_job_raises_as_in_serial(self):
        """Chunk 1 holds a non-invertible base, chunk 2 a zero modulus:
        the serial loop stops at the first, and so must the threads."""
        good = (3, FLOOR - 1, FLOOR + 1)
        jobs = [good] * 4 + [(6, -1, FLOOR * 3)] + [good] * 2 + [(5, 3, 0), good]
        with pytest.raises(ValueError) as serial:
            SerialExecutor().pow_many(jobs)
        with ThreadExecutor(3) as executor, pytest.raises(ValueError) as threaded:
            executor.pow_many(jobs)
        assert str(threaded.value) == str(serial.value) != str(
            outcome(pow, 5, 3, 0)[2]
        )

    def test_single_job_runs_inline(self):
        ran_on = []

        def record(jobs):
            ran_on.extend(threading.current_thread() for _ in jobs)
            return [pow(*job) for job in jobs]

        with ThreadExecutor(4) as executor, mock.patch.object(
            parallel, "powmod_many", side_effect=record
        ):
            assert executor.pow_many([(3, 4, 5)]) == [pow(3, 4, 5)]
            assert executor.pow_many([]) == []
            assert ran_on == [threading.current_thread()]
            executor.pow_many([(3, 4, 5)] * 8)
        assert len(ran_on) == 9
        assert threading.current_thread() not in ran_on[1:]

    @pytest.mark.skipif(backend.describe() == "python", reason="libgmp not found on this host")
    def test_comb_jobs_run_on_the_callers_thread(self):
        """A comb evaluation holds the GIL, so splitting comb jobs over
        threads only makes them wait for each other: the caller evaluates
        them while the pool takes the rest."""
        rnd = random.Random(31)
        modulus = rnd.getrandbits(1024) | (1 << 1023) | 1
        base = backend.FixedBase(rnd.getrandbits(1023), modulus)
        nonces = [rnd.getrandbits(256) | 2 for _ in range(8)]
        plain = [(rnd.getrandbits(1023), rnd.getrandbits(512), modulus) for _ in range(8)]
        gmp, ran_on = backend._gmp, []

        def comb(*args):
            ran_on.append(threading.current_thread())
            return comb_powmod(*args)

        comb_powmod = gmp.comb_powmod
        with mock.patch.object(backend, "_tables", OrderedDict()), mock.patch.object(
            backend, "_BUILD_AFTER", 1
        ), mock.patch.object(gmp, "comb_powmod", comb), ThreadExecutor(2) as executor:
            obfuscators = [(base, s, modulus) for s in nonces]
            assert executor.pow_many(obfuscators) == [pow(*j) for j in obfuscators]
            mixed = [job for pair in zip(plain, obfuscators) for job in pair]
            assert executor.pow_many(mixed) == [pow(*job) for job in mixed]
        if not gmp.fixed_base:
            pytest.skip("the comb's calls did not bind on this host")
        assert len(ran_on) == 2 * len(nonces)
        assert set(ran_on) == {threading.current_thread()}

    def test_one_thread_is_serial(self):
        jobs = [(3, FLOOR - 1, FLOOR + 1)] * 4 + [(backend.FixedBase(3, FLOOR + 1), 5, FLOOR + 1)]
        with ThreadExecutor(1) as executor, mock.patch.object(
            parallel, "powmod_many", wraps=parallel.powmod_many
        ) as evaluate:
            assert executor.pow_many(jobs) == [pow(*job) for job in jobs]
        assert evaluate.call_args_list == [mock.call(jobs)]

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)

    def test_close_joins_every_thread(self):
        before = set(threading.enumerate())
        executor = ThreadExecutor(4)
        executor.pow_many([(3, 4, 5)] * 16)
        assert set(threading.enumerate()) - before  # the pool really ran
        executor.close()
        assert not [t for t in set(threading.enumerate()) - before if t.is_alive()]


class TestSignExtractionEquivalence:
    """Swapping executors never changes protocol bytes.

    All randomness is drawn in protocol order before any batch
    dispatches, so the serial executor and the thread executor must
    produce byte-identical sign-extraction transcripts.
    """

    @staticmethod
    def _transcript(scenario, executor):
        coordinator = PisaCoordinator(
            scenario.environment,
            key_bits=TEST_KEY_BITS,
            rng=DeterministicRandomSource("executor-equivalence"),
            executor=executor,
        )
        for pu in scenario.pus:
            coordinator.enroll_pu(pu)
        client = coordinator.enroll_su(scenario.sus[0])
        request = client.prepare_request()
        extraction = coordinator.sdc.start_request(request)
        conversion = coordinator.stp.handle_sign_extraction(extraction)
        return request.to_bytes(), extraction.to_bytes(), conversion.to_bytes()

    def test_threads_and_serial_transcripts_identical(self, scenario):
        serial = self._transcript(scenario, SerialExecutor())
        with ThreadExecutor(2) as executor:
            threaded = self._transcript(scenario, executor)
        assert serial[0] == threaded[0]  # SU request
        assert serial[1] == threaded[1]  # SDC blinding (eq. 14)
        assert serial[2] == threaded[2]  # STP sign extraction (eq. 15)
        assert executor.jobs_executed > 0  # the threads really ran the batches
