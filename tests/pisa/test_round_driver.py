"""``run_request_round`` is one epoch of the broker's allocator.

The demo, the session, the negotiator and the chaos harness run Figure
5 through ``BatchAllocator.allocate``, so what the broker does around a
round — discard a failed pass's rounds, commit a cluster's epoch, send
the conversion legs as epoch envelopes — holds for every variant.
"""

import subprocess
import sys

import pytest

from repro.cluster import ClusterCoordinator
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import LinkDownError
from repro.pisa.packed import PackedCoordinator
from repro.pisa.storage import decode_shard_state
from repro.pisa.protocol import PisaCoordinator
from repro.pisa.two_server import TwoServerCoordinator
from repro.watch.scenario import ScenarioConfig, build_scenario
from repro.watch.sdc import PlaintextSDC

VARIANTS = {
    "basic": lambda env, rng: PisaCoordinator(env, key_bits=256, rng=rng),
    "cluster": lambda env, rng: ClusterCoordinator(
        env, num_shards=2, key_bits=256, rng=rng
    ),
    "packed": lambda env, rng: PackedCoordinator(env, key_bits=512, rng=rng),
    "two-server": lambda env, rng: TwoServerCoordinator(env, key_bits=256, rng=rng),
}


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(ScenarioConfig(seed=4, num_sus=1))


def deploy(name, scenario):
    coordinator = VARIANTS[name](
        scenario.environment, DeterministicRandomSource(f"driver-{name}")
    )
    for pu in scenario.pus:
        coordinator.enroll_pu(pu)
    coordinator.enroll_su(scenario.sus[0])
    return coordinator


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_failed_round_strands_no_secret(scenario, name):
    """A round cut after phase 1 leaves no round, and no (α, β, ε), pending."""
    coordinator = deploy(name, scenario)
    su_id = scenario.sus[0].su_id
    try:
        coordinator.transport.fail_link("sdc", "stp")
        with pytest.raises(LinkDownError):
            coordinator.run_request_round(su_id)
        assert coordinator.sdc.pending_rounds == 0
        coordinator.transport.restore_link("sdc", "stp")
        report = coordinator.run_request_round(su_id, reuse_cached_request=True)
        oracle = PlaintextSDC(scenario.environment)
        for pu in scenario.pus:
            oracle.pu_update(pu)
        assert report.granted == oracle.process_request(scenario.sus[0]).granted
        assert coordinator.sdc.pending_rounds == 0
    finally:
        getattr(coordinator, "close", lambda: None)()


def test_cluster_round_commits_every_shard(scenario):
    coordinator = deploy("cluster", scenario)
    su_id = scenario.sus[0].su_id
    try:
        for epoch in range(2):
            coordinator.run_request_round(su_id)
            for replica_set in coordinator.replica_sets.values():
                assert replica_set.primary.last_committed_epoch == epoch
                assert decode_shard_state(replica_set.blob())[1] == epoch
    finally:
        coordinator.close()


# A cluster's transport also carries the router↔shard sub-queries.
@pytest.mark.parametrize("name", ["basic", "packed", "two-server"])
def test_report_reads_the_round_off_the_wire(scenario, name):
    """Bytes are the round's per-leg transport delta (the conversion legs
    as epoch envelopes); timings are the allocator's phase spans."""
    coordinator = deploy(name, scenario)
    transport = coordinator.transport
    before = transport.total_bytes()
    report = coordinator.run_request_round(scenario.sus[0].su_id)
    assert report.request_bytes > 0
    assert report.total_bytes == transport.total_bytes() - before
    assert report.sign_extraction_bytes == transport.total_bytes(
        "BatchSignExtractionRequest"
    )
    assert report.conversion_bytes == transport.total_bytes(
        "BatchSignExtractionResponse"
    )
    assert transport.count("BatchSignExtractionRequest") == 1
    timings = report.timings
    assert min(
        timings.request_preparation,
        timings.sdc_phase1,
        timings.stp_conversion,
        timings.sdc_phase2,
        timings.su_decryption,
    ) > 0


@pytest.mark.parametrize(
    "module", ["repro.pisa", "repro.service", "repro.resilience", "repro.cluster"]
)
def test_imports_first_without_a_cycle(module):
    """``repro.pisa.protocol`` imports the round driver from
    ``repro.service.batching``, whose package reaches back into
    ``repro.pisa``; whichever loads first, both must load."""
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True)
