"""Unit tests for the communication-overhead summaries."""

import pytest

from repro.analysis.overhead import summarize_transport
from repro.crypto.rand import DeterministicRandomSource
from repro.net.transport import InMemoryTransport
from repro.pisa.protocol import PisaCoordinator
from repro.service.batching import BatchAllocator, Epoch
from repro.watch.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def round_transport():
    scenario = build_scenario(ScenarioConfig(seed=0, num_sus=1))
    transport = InMemoryTransport()
    coord = PisaCoordinator(
        scenario.environment,
        key_bits=256,
        rng=DeterministicRandomSource("overhead"),
        transport=transport,
    )
    for pu in scenario.pus:
        coord.enroll_pu(pu)
    su = scenario.sus[0]
    coord.enroll_su(su)
    coord.run_request_round(su.su_id)
    return transport


@pytest.fixture(scope="module")
def epoch_transport():
    """One broker pass over a two-request epoch."""
    scenario = build_scenario(ScenarioConfig(seed=0, num_sus=2))
    transport = InMemoryTransport()
    coord = PisaCoordinator(
        scenario.environment,
        key_bits=256,
        rng=DeterministicRandomSource("overhead-epoch"),
        transport=transport,
    )
    for pu in scenario.pus:
        coord.enroll_pu(pu)
    items = []
    for su in scenario.sus:
        coord.enroll_su(su)
        items.append((su.su_id, coord.su_client(su.su_id).prepare_request()))
    BatchAllocator.for_coordinator(coord).allocate(Epoch(0, 0.0, 0.0, items))
    return transport


class TestSummaries:
    def test_all_message_kinds_present(self, round_transport):
        summary = summarize_transport(round_transport)
        assert summary.request_bytes > 0
        assert summary.pu_update_bytes > 0
        assert summary.sign_extraction_bytes > 0
        assert summary.conversion_bytes > 0
        assert summary.response_bytes > 0

    def test_total_is_sum(self, round_transport, epoch_transport):
        for transport in (round_transport, epoch_transport):
            summary = summarize_transport(transport)
            assert summary.total_bytes == transport.total_bytes()
            parts = (
                summary.request_bytes
                + summary.pu_update_bytes
                + summary.sign_extraction_bytes
                + summary.conversion_bytes
                + summary.response_bytes
            )
            assert parts == summary.total_bytes

    def test_response_is_smallest(self, round_transport):
        """§VI-A: the response is one ciphertext (~kb), requests are MBs."""
        summary = summarize_transport(round_transport)
        assert summary.response_bytes < summary.request_bytes
        assert summary.response_bytes < summary.sign_extraction_bytes

    def test_rows_render(self, round_transport):
        rows = summarize_transport(round_transport).as_rows()
        assert len(rows) == 6
        assert rows[-1][0] == "Total"

    def test_empty_transport(self):
        summary = summarize_transport(InMemoryTransport())
        assert summary.total_bytes == 0
        assert summary.message_count == 0
