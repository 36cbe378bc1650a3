"""Worker-pool executor: correctness, chunking, and protocol equivalence."""

import sys
import threading
from collections import UserList

import pytest

from repro.crypto.parallel import SerialExecutor, default_executor
from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.protocol import PisaCoordinator
from repro.service.workers import ProcessWorkerPool, default_worker_count

TEST_KEY_BITS = 256


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

    def test_job_count_is_exact_under_threads(self):
        """The process-wide instance is shared by scatter threads and the
        broker's idle fill; a lost update would move the per-cell job
        pins of ``tests/pisa/test_kernel.py``.

        The batch is a ``UserList`` because its ``len()`` runs Python
        code: CPython 3.11 inlines ``len(list)`` without a thread-switch
        check, which hides the race there and nowhere else.
        """
        executor = SerialExecutor()
        threads, calls, jobs = 16, 10_000, UserList([(3, 5, 7)])
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
        assert not any(worker.is_alive() for worker in workers)
        assert executor.jobs_executed == threads * calls


class TestProcessWorkerPool:
    def test_results_match_serial_in_order(self):
        jobs = [(base, 65537, 10**9 + 7) for base in range(2, 40)]
        with ProcessWorkerPool(max_workers=2, min_parallel_jobs=1) as pool:
            assert pool.pow_many(jobs) == SerialExecutor().pow_many(jobs)

    def test_small_batches_run_inline(self):
        with ProcessWorkerPool(max_workers=2, min_parallel_jobs=8) as pool:
            assert pool.pow_many([(3, 4, 5)]) == [pow(3, 4, 5)]
            assert pool._pool is None  # never forked

    def test_counts_jobs_and_batches(self):
        with ProcessWorkerPool(max_workers=1) as pool:
            pool.pow_many([(2, 2, 9), (3, 3, 11)])
            pool.pow_many([(5, 5, 13)])
        assert pool.jobs_executed == 3
        assert pool.batches_executed == 2

    def test_empty_batch(self):
        with ProcessWorkerPool(max_workers=2) as pool:
            assert pool.pow_many([]) == []

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(max_workers=0)

    def test_default_worker_count_floor(self):
        assert default_worker_count() >= 2

    def test_warm_up_starts_pool(self):
        with ProcessWorkerPool(max_workers=2, min_parallel_jobs=1) as pool:
            pool.warm_up()
            assert pool._pool is not None


class TestSignExtractionEquivalence:
    """The satellite claim: swapping executors never changes protocol bytes.

    All randomness is drawn in the parent process in protocol order
    before any batch dispatches, so the serial executor and the process
    pool must produce byte-identical sign-extraction transcripts.
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

    def test_pool_and_serial_transcripts_identical(self, scenario):
        serial = self._transcript(scenario, SerialExecutor())
        with ProcessWorkerPool(max_workers=2, min_parallel_jobs=1) as pool:
            pooled = self._transcript(scenario, pool)
        assert serial[0] == pooled[0]  # SU request
        assert serial[1] == pooled[1]  # SDC blinding (eq. 14)
        assert serial[2] == pooled[2]  # STP sign extraction (eq. 15)
        assert pool.jobs_executed > 0  # the pool really ran the batches
