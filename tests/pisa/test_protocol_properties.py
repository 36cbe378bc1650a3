"""Property-based end-to-end tests: PISA ≡ WATCH on random instances.

Hypothesis drives random tiny deployments — grid geometry, PU placement
and signal strengths, SU position and power — and asserts the paper's
central correctness property on every one: the privacy-preserving
decision equals the plaintext decision.  Key sizes are small (the
property is about protocol algebra, not cryptographic strength).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.rand import DeterministicRandomSource
from repro.geo.grid import BlockGrid
from repro.pisa.protocol import PisaCoordinator
from repro.watch.entities import PUReceiver, SUTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.params import WatchParameters
from repro.watch.sdc import PlaintextSDC

GRID = BlockGrid(rows=2, cols=3, block_size_m=10.0)
PARAMS = WatchParameters(num_channels=2)

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

pu_strategy = st.tuples(
    st.integers(min_value=0, max_value=GRID.num_blocks - 1),  # block
    st.integers(min_value=0, max_value=PARAMS.num_channels - 1),  # slot
    st.floats(min_value=1e-7, max_value=1e-2),  # signal strength (mW)
)

su_strategy = st.tuples(
    st.integers(min_value=0, max_value=GRID.num_blocks - 1),  # block
    st.floats(min_value=-10.0, max_value=30.0),  # tx power (dBm)
)


def build_instance(pus_spec, su_spec, seed):
    environment = SpectrumEnvironment(GRID, PARAMS, transmitters=())
    pus = [
        PUReceiver(f"pu-{i}", block_index=block, channel_slot=slot,
                   signal_strength_mw=signal)
        for i, (block, slot, signal) in enumerate(pus_spec)
    ]
    su = SUTransmitter("su", block_index=su_spec[0], tx_power_dbm=su_spec[1])
    oracle = PlaintextSDC(environment)
    coordinator = PisaCoordinator(
        environment, key_bits=256, rng=DeterministicRandomSource(seed)
    )
    for pu in pus:
        oracle.pu_update(pu)
        coordinator.enroll_pu(pu)
    coordinator.enroll_su(su)
    return oracle, coordinator, su


@relaxed
@given(
    pus_spec=st.lists(pu_strategy, min_size=0, max_size=3),
    su_spec=su_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pisa_equals_watch_on_random_instances(pus_spec, su_spec, seed):
    oracle, coordinator, su = build_instance(pus_spec, su_spec, seed)
    plain = oracle.process_request(su)
    report = coordinator.run_request_round(su.su_id)
    assert report.granted == plain.granted


@relaxed
@given(
    pus_spec=st.lists(pu_strategy, min_size=1, max_size=2),
    su_spec=su_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_refresh_decision_invariant(pus_spec, su_spec, seed):
    """Re-randomised requests must always decide like fresh ones."""
    oracle, coordinator, su = build_instance(pus_spec, su_spec, seed)
    fresh = coordinator.run_request_round(su.su_id)
    refreshed = coordinator.run_request_round(su.su_id, reuse_cached_request=True)
    assert fresh.granted == refreshed.granted
    assert fresh.granted == oracle.process_request(su).granted


@relaxed
@given(
    pus_spec=st.lists(pu_strategy, min_size=1, max_size=2),
    su_spec=su_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_license_validity_matches_decision(pus_spec, su_spec, seed):
    """The signature verifies iff the request was granted — never both
    ways, never neither."""
    from repro.crypto.signatures import RsaFdhVerifier

    oracle, coordinator, su = build_instance(pus_spec, su_spec, seed)
    report = coordinator.run_request_round(su.su_id)
    verifier = RsaFdhVerifier(coordinator.stp.directory.signing_key("sdc"))
    verifies = report.outcome.license.verify(
        verifier, report.outcome.decrypted_value
    )
    assert verifies == report.granted
