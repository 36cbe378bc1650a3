"""The broker's idle work: the converter's obfuscator fill between epochs.

``BatchAllocator.for_coordinator`` hands the broker the local conversion
server's ``fill_stock``; the broker runs it off-loop from the moment an
epoch's decisions are resolved until the next epoch is dispatched.  The
fill draws nothing, so the only things allowed to differ from a run
without it are ``StpStats.obfuscators_stocked`` / ``obfuscators_inline``.
"""

import asyncio
import io
import threading

import pytest

from repro.cluster import ClusterCoordinator
from repro.crypto.parallel import SerialExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.net.recording import TranscriptTransport
from repro.pisa.packed import PackedCoordinator
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.stp_server import _FILL_CHUNK
from repro.pisa.two_server import TwoServerCoordinator
from repro.resilience.chaos import FROZEN_CLOCK
from repro.resilience.journal import EpochJournal, JournalWriter
from repro.service.batching import BatchAllocator
from repro.service.broker import ServiceConfig, SpectrumAccessBroker
from repro.watch.scenario import ScenarioConfig, build_scenario
from repro.watch.sdc import PlaintextSDC

WAIT_S = 30.0
ROUNDS = 3


def frozen_clock() -> float:
    return FROZEN_CLOCK


def _oracle_grants(scenario, pus) -> list[bool]:
    """The plaintext controller's decision for every SU, given ``pus``."""
    oracle = PlaintextSDC(scenario.environment)
    for pu in pus:
        oracle.pu_update(pu)
    return [oracle.process_request(su).granted for su in scenario.sus]


@pytest.fixture(scope="module")
def idle_scenario():
    # Decisions (False, True, True, True); PU 1 going quiet flips SU 0.
    return build_scenario(ScenarioConfig(seed=4, num_sus=4))


def _enroll(coordinator, scenario):
    pu_clients = [coordinator.enroll_pu(pu) for pu in scenario.pus]
    for su in scenario.sus:
        coordinator.enroll_su(su)
    return pu_clients


def _deploy(kind: str, scenario, journal=None, executor=None):
    """One enrolled deployment on a fingerprinting transport, clock frozen."""
    common = dict(rng=DeterministicRandomSource("idle-work"), transport=TranscriptTransport())
    if kind == "2-shard":
        coordinator = ClusterCoordinator(
            scenario.environment, num_shards=2, key_bits=256, journal=journal,
            clock=frozen_clock, stp_executor=executor, **common,
        )
    else:
        build, key_bits = {
            "baseline": (PisaCoordinator, 256),
            "packed": (PackedCoordinator, 512),
            "two-server": (TwoServerCoordinator, 256),
        }[kind]
        coordinator = build(
            scenario.environment, key_bits=key_bits, executor=executor, **common
        )
        coordinator.sdc._clock = frozen_clock
    return coordinator, _enroll(coordinator, scenario)


def _close(coordinator) -> None:
    closer = getattr(coordinator, "close", None)
    if closer is not None:
        closer()


def _broker(coordinator, idle: bool = True, journal=None, **config) -> SpectrumAccessBroker:
    allocator = BatchAllocator.for_coordinator(coordinator)
    assert allocator.idle_work is not None
    if not idle:
        allocator.idle_work = None
    return SpectrumAccessBroker(
        allocator=allocator,
        pu_update_handler=coordinator.sdc.handle_pu_update,
        config=ServiceConfig(**config),
        journal=journal,
    )


async def _until(condition) -> None:
    deadline = asyncio.get_running_loop().time() + WAIT_S
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.002)


def _filled(stp) -> bool:
    counts = stp.stock_counts()
    return counts["stocked_obfuscators"] == counts["stocked_nonces"]


async def _closed_loop(coordinator, scenario, idle: bool, journal=None):
    """ROUNDS rounds of every SU at once — one full epoch per round.

    The window never elapses, so an epoch is its four members in
    submission order.  With the idle work on, each round waits for the
    fill to finish before the next starts.  Returns the decisions and
    ``obfuscators_inline`` as it stood after the first round.
    """
    su_ids = [su.su_id for su in scenario.sus]
    clients = {su_id: coordinator.su_client(su_id) for su_id in su_ids}
    for client in clients.values():
        client.prepare_request()
    broker = _broker(
        coordinator, idle, journal, batch_window_s=WAIT_S, max_batch=len(su_ids)
    )
    decisions, inline_after_first = [], None
    async with broker:
        for _ in range(ROUNDS):
            requests = [clients[su_id].refresh_request() for su_id in su_ids]
            decisions += await asyncio.gather(
                *(broker.submit_request(s, r) for s, r in zip(su_ids, requests))
            )
            if idle:
                await _until(lambda: _filled(coordinator.stp))
            if inline_after_first is None:
                inline_after_first = coordinator.stp.stats.obfuscators_inline
    return [d.status for d in decisions], inline_after_first


@pytest.mark.parametrize("kind", ["packed", "2-shard", "two-server"])
class TestFillBetweenEpochs:
    def _run(self, kind, scenario, idle, journaled=False):
        buffer = io.BytesIO()
        journal = EpochJournal(JournalWriter(fileobj=buffer)) if journaled else None
        coordinator, _ = _deploy(kind, scenario, journal=journal)
        threads_before = set(threading.enumerate())
        try:
            statuses, inline_after_first = asyncio.run(
                _closed_loop(coordinator, scenario, idle, journal)
            )
            if journal is not None:
                journal.barrier()
        finally:
            _close(coordinator)
        assert set(threading.enumerate()) <= threads_before
        return (
            statuses,
            inline_after_first,
            coordinator.stp.stats,
            tuple(coordinator.transport.fingerprints),
            buffer.getvalue(),
        )

    def test_only_the_first_round_computes_inline(self, kind, idle_scenario):
        statuses, inline_after_first, stats, _, _ = self._run(kind, idle_scenario, True)
        expected = _oracle_grants(idle_scenario, idle_scenario.pus)
        assert statuses == ["granted" if g else "denied" for g in expected] * ROUNDS
        assert stats.conversions == ROUNDS * len(idle_scenario.sus)
        assert inline_after_first * ROUNDS == stats.cells_encrypted
        assert stats.obfuscators_inline == inline_after_first
        assert stats.obfuscators_stocked + stats.obfuscators_inline == stats.cells_encrypted

    def test_transcript_and_journal_do_not_see_the_fill(self, kind, idle_scenario):
        journaled = kind == "2-shard"
        with_fill = self._run(kind, idle_scenario, True, journaled)
        without = self._run(kind, idle_scenario, False, journaled)
        assert with_fill[2].obfuscators_stocked > 0 == without[2].obfuscators_stocked
        assert with_fill[0] == without[0]
        assert len(with_fill[3]) > 0
        assert with_fill[3] == without[3]
        assert with_fill[4] == without[4]
        assert bool(with_fill[4]) == journaled


class GatedExecutor(SerialExecutor):
    """Logs every batch; while ``hold`` is set, each fill-sized batch
    waits at the gate for its own pass (an allocation pass only submits
    whole-request batches, which never wait)."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[int] = []
        self.hold = threading.Event()
        self.entered = threading.Event()
        self._gate = threading.Semaphore(0)

    def pow_many(self, jobs):
        self.log.append(len(jobs))
        if len(jobs) <= _FILL_CHUNK and self.hold.is_set():
            self.entered.set()
            assert self._gate.acquire(timeout=WAIT_S)
        return super().pow_many(jobs)

    async def held_chunk(self) -> None:
        """Wait until a fill chunk stands at the gate."""
        assert await asyncio.to_thread(self.entered.wait, WAIT_S)

    def pass_one(self) -> None:
        """Let the chunk at the gate through; the next one waits again."""
        self.entered.clear()
        self._gate.release()

    def open(self) -> None:
        """Let the chunk at the gate through and stop gating."""
        self.hold.clear()
        self._gate.release()


class TestStoppingTheFill:
    def _deploy(self, scenario):
        executor = GatedExecutor()
        coordinator, pu_clients = _deploy("baseline", scenario, executor=executor)
        su_id = scenario.sus[0].su_id
        client = coordinator.su_client(su_id)
        client.prepare_request()
        broker = _broker(coordinator, batch_window_s=0.0, max_batch=1)
        return executor, coordinator, pu_clients, su_id, client, broker

    def test_fill_is_joined_before_the_pass_and_in_stop(self, idle_scenario):
        executor, coordinator, _, su_id, client, broker = self._deploy(idle_scenario)
        env = idle_scenario.environment
        cells = env.num_blocks * env.num_channels
        # Phase 1 batches one job per cell plus one per PU-occupied cell.
        occupied = env.num_channels * len({pu.block_index for pu in idle_scenario.pus})

        async def scenario():
            executor.hold.set()
            await broker.start()
            await broker.submit_request(su_id, client.refresh_request())
            await executor.held_chunk()
            # A second request arrives while a chunk is being computed:
            # its pass does not start beside the fill.
            logged = len(executor.log)
            second = asyncio.ensure_future(
                broker.submit_request(su_id, client.refresh_request())
            )
            await asyncio.sleep(0.05)
            assert not second.done()
            assert len(executor.log) == logged
            executor.pass_one()
            await second
            # It waited for that one chunk: phase 1's batch is the very
            # next thing the executor saw.
            assert executor.log[logged - 1] <= _FILL_CHUNK
            assert executor.log[logged] == cells + occupied
            assert coordinator.stp.stats.obfuscators_stocked == _FILL_CHUNK
            # stop() with a chunk at the gate: waits for it, then the
            # fill goes no further.
            await executor.held_chunk()
            logged = len(executor.log)
            stopping = asyncio.ensure_future(broker.stop())
            await asyncio.sleep(0.05)
            assert not stopping.done()
            executor.pass_one()
            await stopping
            assert len(executor.log) == logged
            counts = coordinator.stp.stock_counts()
            assert counts["stocked_obfuscators"] == _FILL_CHUNK < counts["stocked_nonces"]

        threads_before = set(threading.enumerate())
        asyncio.run(scenario())
        assert set(threading.enumerate()) <= threads_before

    def test_pu_update_during_a_fill_is_applied(self, idle_scenario):
        executor, coordinator, pu_clients, su_id, client, broker = self._deploy(
            idle_scenario
        )
        pus = list(idle_scenario.pus)
        pus[1] = pus[1].switched_to(None, 0.0)
        expected = _oracle_grants(idle_scenario, pus)[0]

        async def scenario():
            executor.hold.set()
            async with broker:
                first = await broker.submit_request(su_id, client.refresh_request())
                await executor.held_chunk()
                broker.submit_pu_update(pu_clients[1].switch_channel(None))
                applied = broker.metrics.counter("pu_updates_applied")
                await _until(lambda: applied.snapshot() == 1)
                assert executor.entered.is_set()  # the fill is still at the gate
                executor.open()
                second = await broker.submit_request(su_id, client.refresh_request())
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == "denied"
        assert expected is True
        assert second.status == "granted"
