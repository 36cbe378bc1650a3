"""The kernel's closed forms against the paper's operator chains.

Phase 1 executes eqs. (10)-(14) as ``F^{−εαΔ} · W^{εα} · g^{ε(αE−β)}``
and phase 2 executes eq. (16) as ``g^{−k} · Π₊X · (Π₋X)^{−1}``; the packed
SDC folds its chunks the same way.  Three things are pinned here.  The
algebra: for any indicator the deployment's bound admits, any ``(α, β)``
the factory can draw and both ``ε``, the blinded cell decrypts to
exactly ``ε(αI − β)`` — never 0, and with the sign eq. (15) extracts.
The bytes: every closed form equals, ciphertext for ciphertext, the
paper's operator chain, which this module keeps as its oracle.  And
the operation count: phase 1 submits one ``pow_many`` job per cell plus
one per PU-occupied cell and makes no funnel call outside that batch;
phase 2 takes one inverse per partial sum — on one SDC and on every
cluster shape.
"""

import copy
import dataclasses
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.crypto import backend
from repro.crypto.paillier import EncryptedNumber, generate_keypair, hom_sum
from repro.crypto.parallel import SerialExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.signatures import RsaFdhSigner, generate_rsa_keypair
from repro.errors import ProtocolError
from repro.pisa.blinding import BlindingFactory
from repro.pisa.kernel import partial_q_sum
from repro.pisa.keys import KeyDirectory
from repro.pisa.packed import PackedCoordinator
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.sdc_server import SdcServer
from repro.watch.scenario import ScenarioConfig, build_scenario

needs_native = pytest.mark.skipif(
    backend.describe() == "python", reason="the census counts libgmp calls"
)


# -- the oracles: eqs. (10)-(16) one operator at a time ----------------------------


def chain_phase1(f_ct, w_ct, e_value, cell, delta):
    """``ε ⊗ ((α ⊗ Ĩ) ⊖ β)`` with ``Ĩ = Ẽ ⊖ (Δ ⊗ F̃) ⊕ W̃'``."""
    indicator = f_ct.scalar_mul(delta).scalar_mul(-1).add_plain(e_value)
    if w_ct is not None:
        indicator = indicator.add(w_ct)
    return indicator.scalar_mul(cell.alpha).add_plain(-cell.beta).scalar_mul(cell.epsilon)


def chain_q_sum(matrix, epsilons):
    """``⊕ ((ε ⊗ X̃) ⊖ 1̃)`` over every cell."""
    return hom_sum(
        x_ct.scalar_mul(epsilon).add_plain(-1)
        for x_row, epsilon_row in zip(matrix, epsilons)
        for x_ct, epsilon in zip(x_row, epsilon_row)
    )


def chain_packed_chunk(sdc, f_chunk, channel, blocks, alpha, packed_bias):
    """Slot-parallel eqs. (10)-(12), then ``α ⊗ Ĩ ⊕ bias``."""
    env, layout = sdc.environment, sdc.layout
    e_packed = layout.pack([int(env.e_matrix[channel, b]) for b in blocks])
    indicator = f_chunk.scalar_mul(env.params.sinr_plus_redn_int).scalar_mul(-1)
    indicator = indicator.add_plain(e_packed)
    for slot, block in enumerate(blocks):
        w_ct = sdc.kernel.cell(channel, block)
        if w_ct is not None:
            indicator = indicator.add(w_ct.scalar_mul(layout.shift(slot)))
    return indicator.scalar_mul(alpha).add_plain(packed_bias)


@contextmanager
def native_calls():
    """Every exponentiation that reaches libgmp — ``mpz_powm`` / ``mpz_invert``
    or a fixed-base comb — as ``mock.call(base or table, exponent, ...)``
    records in call order (``None`` on a host without the library: there
    is nothing to count)."""
    gmp = backend._gmp
    if gmp is None:
        yield None
        return
    calls = []

    def recorded(function):
        def wrapper(*args):
            calls.append(mock.call(*args))
            return function(*args)

        return wrapper

    with mock.patch.object(gmp, "powmod", recorded(gmp.powmod)), mock.patch.object(
        gmp, "comb_powmod", recorded(gmp.comb_powmod)
    ):
        yield calls


# -- fixtures -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment():
    """A group keypair and an SDC over it (kernel + the deployment's bound)."""
    rng = DeterministicRandomSource("kernel-blind")
    keypair = generate_keypair(256, rng=rng)
    _, signing = generate_rsa_keypair(128, rng=rng)
    sdc = SdcServer(
        build_scenario(ScenarioConfig(seed=4)).environment,
        KeyDirectory(keypair.public_key),
        RsaFdhSigner(signing),
        rng=rng,
    )
    return keypair, sdc


@pytest.fixture(scope="module")
def packed_scenario():
    return build_scenario(ScenarioConfig(seed=4, num_sus=1))


def indicators(bound: int):
    """Indicators biased to where eq. (14) could break: 0, ±1, ± the bound."""
    return st.one_of(
        st.sampled_from([0, 1, -1, bound, -bound]),
        st.integers(min_value=-bound, max_value=bound),
    )


def draw_cell(data, sdc, pk, rng):
    """One phase-1 cell ``(F̃, W̃' or None, E)`` whose indicator is drawn
    from :func:`indicators`, split at random between ``F``, ``W`` and ``E``."""
    value = data.draw(indicators(sdc.blinding_parameters().indicator_bound))
    params = sdc.environment.params
    f_value = data.draw(st.integers(min_value=0, max_value=(1 << params.value_bits) - 1))
    w_value = data.draw(st.none() | st.integers(min_value=-(1 << 20), max_value=1 << 20))
    e_value = value + params.sinr_plus_redn_int * f_value - (w_value or 0)
    w_ct = None if w_value is None else pk.encrypt(w_value, rng=rng)
    return value, (pk.encrypt(f_value, rng=rng), w_ct, e_value)


class TestBlindAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    def test_blinded_cell_decrypts_to_eq14(self, deployment, data, seed):
        keypair, sdc = deployment
        pk, sk = keypair.public_key, keypair.private_key
        rng = DeterministicRandomSource(f"blind-{seed}")
        drawn = BlindingFactory(sdc.blinding_parameters(), rng=rng).draw()
        assert drawn.alpha > drawn.beta >= 1
        cells = [dataclasses.replace(drawn, epsilon=eps) for eps in (1, -1)]
        value, phase1_cell = draw_cell(data, sdc, pk, rng)

        (blinded_row,) = sdc.kernel.blind([[phase1_cell, phase1_cell]], [cells])

        for cell, blinded in zip(cells, blinded_row):
            v = sk.decrypt(blinded)
            assert v == cell.epsilon * (cell.alpha * value - cell.beta)
            assert v == cell.blind_value(value)
            assert v != 0
            # Eq. (15): the STP reads sign(V) = ε · sign'(I), I ≤ 0 ↦ −1.
            assert (1 if v > 0 else -1) == cell.epsilon * (1 if value > 0 else -1)


class TestClosedFormsEqualTheChain:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    def test_phase1(self, deployment, data, seed):
        keypair, sdc = deployment
        rng = DeterministicRandomSource(f"phase1-{seed}")
        factory = BlindingFactory(sdc.blinding_parameters(), rng=rng)
        cells = [draw_cell(data, sdc, keypair.public_key, rng)[1] for _ in range(3)]
        blindings = [factory.draw() for _ in cells]
        delta = sdc.environment.params.sinr_plus_redn_int

        (folded,) = sdc.kernel.blind([cells], [blindings])

        assert list(folded) == [
            chain_phase1(*cell, blinding, delta) for cell, blinding in zip(cells, blindings)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_phase2(self, keypair, shape, data, seed):
        pk = keypair.public_key
        rng = DeterministicRandomSource(f"phase2-{seed}")
        matrix = [[pk.encrypt(rng.randrange(-3, 4), rng=rng) for _ in range(w)] for w in shape]
        epsilons = [data.draw(st.lists(st.sampled_from([1, -1]), min_size=w, max_size=w))
                    for w in shape]
        assert partial_q_sum(matrix, epsilons) == chain_q_sum(matrix, epsilons)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), quiet=st.integers(0, 2))
    def test_packed_chunks(self, packed_scenario, seed, quiet):
        coordinator = PackedCoordinator(
            packed_scenario.environment, key_bits=512,
            rng=DeterministicRandomSource(f"packed-{seed}"),
        )
        pu_ids = [coordinator.enroll_pu(pu).pu.receiver_id for pu in packed_scenario.pus]
        for pu_id in pu_ids[:quiet]:  # switched off: W̃' encrypting 0 stays
            coordinator.pu_switch_channel(pu_id, None)
        su = packed_scenario.sus[0]
        request = coordinator.enroll_su(su).prepare_request()
        sdc = coordinator.sdc
        twin = copy.copy(sdc._rng)

        extraction = sdc.start_request(request)

        # Replay the chunk draws on the twin stream, in the same order.
        real = sdc._rng
        sdc._rng = twin
        try:
            block_chunks = sdc.layout.chunks(list(request.region_blocks))
            expected = [
                chain_packed_chunk(sdc, f_chunk, c, blocks, *sdc._draw_chunk_blinding(blocks))
                for c, row in enumerate(request.rows)
                for f_chunk, blocks in zip(row, block_chunks)
            ]
        finally:
            sdc._rng = real
        (pending,) = sdc._pending.values()
        assert [extraction.chunks[p] for p in pending.real_positions] == expected


# -- operation counts ---------------------------------------------------------------


class TestPhase1JobCount:
    """One ``pow_many`` job per cell plus one per PU-occupied cell in phase
    1 — and nothing outside that batch reaches the funnel."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig(seed=4, num_sus=1))

    @staticmethod
    def jobs_of(scenario, request) -> int:
        cells = sum(len(row) for row in request.matrix)
        pu_blocks = {pu.block_index for pu in scenario.pus} & set(request.region_blocks)
        occupied = len(request.matrix) * len(pu_blocks)
        assert occupied > 0
        return cells + occupied

    @staticmethod
    def enroll(coordinator, scenario):
        for pu in scenario.pus:
            coordinator.enroll_pu(pu)
        return coordinator.enroll_su(scenario.sus[0]).prepare_request()

    def test_single_sdc(self, scenario):
        executor = SerialExecutor()
        coordinator = PisaCoordinator(
            scenario.environment,
            key_bits=256,
            rng=DeterministicRandomSource("job-count"),
            executor=executor,
        )
        request = self.enroll(coordinator, scenario)
        before = executor.jobs_executed
        with native_calls() as calls:
            coordinator.sdc.start_request(request)
        assert executor.jobs_executed - before == self.jobs_of(scenario, request)
        assert calls is None or len(calls) == self.jobs_of(scenario, request)

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_cluster(self, scenario, num_shards):
        executors = {}

        def factory(shard_id):
            return executors.setdefault(shard_id, SerialExecutor())

        coordinator = ClusterCoordinator(
            scenario.environment,
            num_shards=num_shards,
            key_bits=256,
            rng=DeterministicRandomSource("job-count"),
            shard_executor_factory=factory,
        )
        try:
            request = self.enroll(coordinator, scenario)
            before = sum(e.jobs_executed for e in executors.values())
            with native_calls() as calls:
                coordinator.sdc.start_request(request)
        finally:
            coordinator.close()
        assert len(executors) == num_shards
        jobs = sum(e.jobs_executed for e in executors.values()) - before
        assert jobs == self.jobs_of(scenario, request)
        assert calls is None or len(calls) == jobs


class TestPhase2Inverses:
    """One inverse per request — the front's one ``ΣQ̃`` — whatever the
    ε pattern or the shard count."""

    @needs_native
    @pytest.mark.parametrize("num_shards", [0, 1, 2, 3])
    def test_one_inverse_per_partial_sum(self, num_shards):
        scenario = build_scenario(ScenarioConfig(seed=4, num_sus=1))
        rng = DeterministicRandomSource("phase2-count")
        if num_shards:
            coordinator = ClusterCoordinator(
                scenario.environment, num_shards=num_shards, key_bits=256, rng=rng
            )
        else:
            coordinator = PisaCoordinator(scenario.environment, key_bits=256, rng=rng)
        try:
            request = coordinator.enroll_su(scenario.sus[0]).prepare_request()
            extraction = coordinator.sdc.start_request(request)
            response = coordinator.stp.handle_sign_extraction(extraction)
            with native_calls() as calls:
                coordinator.sdc.finish_request(response)
        finally:
            getattr(coordinator, "close", lambda: None)()
        inverses = [c for c in calls if c.args[1] < 0]
        assert len(inverses) == 1


class TestKernelRefusals:
    """The kernel is its own trust boundary: ε outside {−1, +1} and a
    non-unit cell are typed errors, not garbage or a ``ValueError``."""

    def test_epsilon_outside_the_signs(self, deployment):
        keypair, sdc = deployment
        rng = DeterministicRandomSource("eps")
        cell = (keypair.public_key.encrypt(1, rng=rng), None, 3)
        bad = dataclasses.replace(
            BlindingFactory(sdc.blinding_parameters(), rng=rng).draw(), epsilon=3
        )
        with pytest.raises(ProtocolError):
            sdc.kernel.blind([[cell]], [[bad]])
        with pytest.raises(ProtocolError):
            partial_q_sum([[cell[0]]], [[0]])
        with pytest.raises(ProtocolError):
            partial_q_sum([[cell[0]]], [[1, -1]])

    @pytest.mark.parametrize("ciphertext", ["zero", "p"])
    def test_non_unit_request_cell(self, deployment, ciphertext):
        keypair, sdc = deployment
        pk = keypair.public_key
        value = {"zero": 0, "p": keypair.private_key.p}[ciphertext]
        good = pk.encrypt(1, rng=DeterministicRandomSource("unit"))
        bad = EncryptedNumber(pk, value)
        with pytest.raises(ProtocolError):
            sdc.kernel.phase1_cells((0, 1), [[good, bad]])


@needs_native
def test_the_census_counts_a_comb_exponentiation():
    """An obfuscator of a key past the table threshold skips ``mpz_powm``;
    :func:`native_calls` still counts it, once."""
    pk = generate_keypair(512, rng=DeterministicRandomSource("census-comb")).public_key
    for s in range(backend._BUILD_AFTER):
        backend.powmod(*pk.obfuscator_job(s + 2))
    with native_calls() as calls:
        pk.encrypt(1, rng=DeterministicRandomSource("census-comb-nonce"))
    assert len(calls) == 1
