"""``BlockKernel.blind`` — eq. (14) with β as a plaintext blind.

Two things are pinned here.  The algebra, directly on the kernel: for
any indicator the deployment's bound admits, any ``(α, β)`` the factory
can draw and both ``ε``, the blinded cell decrypts to exactly
``ε(αI − β)`` — never 0, and with the sign eq. (15) extracts.  And the
operation count, through the public ``executor=`` seam: phase 1 submits
one ``pow_many`` job per cell (the ``α ⊗ Ĩ``), on one SDC and on every
cluster shape.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.crypto.paillier import generate_keypair
from repro.crypto.parallel import SerialExecutor
from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.signatures import RsaFdhSigner, generate_rsa_keypair
from repro.pisa.blinding import BlindingFactory
from repro.pisa.keys import KeyDirectory
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.sdc_server import SdcServer
from repro.watch.scenario import ScenarioConfig, build_scenario


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


def indicators(bound: int):
    """Indicators biased to where eq. (14) could break: 0, ±1, ± the bound."""
    return st.one_of(
        st.sampled_from([0, 1, -1, bound, -bound]),
        st.integers(min_value=-bound, max_value=bound),
    )


class TestBlindAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    def test_blinded_cell_decrypts_to_eq14(self, deployment, data, seed):
        keypair, sdc = deployment
        pk, sk = keypair.public_key, keypair.private_key
        parameters = sdc.blinding_parameters()
        value = data.draw(indicators(parameters.indicator_bound))
        rng = DeterministicRandomSource(f"blind-{seed}")
        drawn = BlindingFactory(parameters, rng=rng).draw()
        assert drawn.alpha > drawn.beta >= 1
        cells = [dataclasses.replace(drawn, epsilon=eps) for eps in (1, -1)]
        indicator = pk.encrypt(value, rng=rng)

        (blinded_row,) = sdc.kernel.blind([[indicator, indicator]], [cells])

        for cell, blinded in zip(cells, blinded_row):
            v = sk.decrypt(blinded)
            assert v == cell.epsilon * (cell.alpha * value - cell.beta)
            assert v == cell.blind_value(value)
            assert v != 0
            # Eq. (15): the STP reads sign(V) = ε · sign'(I), I ≤ 0 ↦ −1.
            assert (1 if v > 0 else -1) == cell.epsilon * (1 if value > 0 else -1)


class TestPhase1JobCount:
    """One ``pow_many`` job per cell in phase 1 (it was two)."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig(seed=4, num_sus=1))

    @staticmethod
    def cells_of(request) -> int:
        return sum(len(row) for row in request.matrix)

    def test_single_sdc(self, scenario):
        executor = SerialExecutor()
        coordinator = PisaCoordinator(
            scenario.environment,
            key_bits=256,
            rng=DeterministicRandomSource("job-count"),
            executor=executor,
        )
        request = coordinator.enroll_su(scenario.sus[0]).prepare_request()
        before = executor.jobs_executed
        coordinator.sdc.start_request(request)
        assert executor.jobs_executed - before == self.cells_of(request)

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
            request = coordinator.enroll_su(scenario.sus[0]).prepare_request()
            coordinator.sdc.start_request(request)
        finally:
            coordinator.close()
        assert len(executors) == num_shards
        assert sum(e.jobs_executed for e in executors.values()) == self.cells_of(
            request
        )
