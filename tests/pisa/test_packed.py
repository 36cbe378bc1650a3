"""Tests for the packed-request protocol extension."""

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ProtocolError
from repro.pisa.packed import (
    PackedCoordinator,
    PackedSignExtractionResponse,
)
from repro.watch.sdc import PlaintextSDC
from repro.watch.scenario import ScenarioConfig, build_scenario

#: Packed mode needs room for slots: 512-bit keys give 3 slots here.
PACKED_KEY_BITS = 512


@pytest.fixture(scope="module")
def packed_scenario():
    return build_scenario(ScenarioConfig(seed=4, num_sus=3))


@pytest.fixture(scope="module")
def deployment(packed_scenario):
    coord = PackedCoordinator(
        packed_scenario.environment,
        key_bits=PACKED_KEY_BITS,
        rng=DeterministicRandomSource("packed-tests"),
    )
    for pu in packed_scenario.pus:
        coord.enroll_pu(pu)
    for su in packed_scenario.sus:
        coord.enroll_su(su)
    return coord


@pytest.fixture(scope="module")
def packed_oracle(packed_scenario):
    sdc = PlaintextSDC(packed_scenario.environment)
    for pu in packed_scenario.pus:
        sdc.pu_update(pu)
    return sdc


class TestConfig:
    def test_layout_has_multiple_slots(self, deployment):
        assert deployment.layout.num_slots >= 2


class TestDecisionEquivalence:
    def test_matches_plaintext_oracle(self, deployment, packed_oracle, packed_scenario):
        for su in packed_scenario.sus:
            plain = packed_oracle.process_request(su)
            report = deployment.run_request_round(su.su_id)
            assert report.granted == plain.granted, su.su_id

    def test_both_outcomes_exercised(self, packed_oracle, packed_scenario):
        outcomes = {
            packed_oracle.process_request(su).granted for su in packed_scenario.sus
        }
        assert outcomes == {True, False}

    def test_pu_churn_tracked(self, packed_scenario):
        """Packed SDC must fold PU re-submissions like the baseline."""
        scenario = build_scenario(ScenarioConfig(seed=8, num_sus=1))
        oracle = PlaintextSDC(scenario.environment)
        coord = PackedCoordinator(
            scenario.environment, key_bits=PACKED_KEY_BITS,
            rng=DeterministicRandomSource("packed-churn"),
        )
        clients = {}
        for pu in scenario.pus:
            oracle.pu_update(pu)
            clients[pu.receiver_id] = coord.enroll_pu(pu)
        su = scenario.sus[0]
        coord.enroll_su(su)
        assert (
            coord.run_request_round(su.su_id).granted
            == oracle.process_request(su).granted
        )
        # Switch all PUs off and re-check.
        for pu in scenario.pus:
            update = clients[pu.receiver_id].switch_channel(None)
            if update is not None:
                coord.sdc.handle_pu_update(update)
            oracle.pu_update(pu.switched_to(None))
        assert (
            coord.run_request_round(su.su_id).granted
            == oracle.process_request(su).granted
        )


class TestEfficiency:
    def test_request_smaller_than_unpacked(self, deployment, packed_scenario):
        """The headline: request size shrinks by ≈ the slot count."""
        env = packed_scenario.environment
        su = packed_scenario.sus[0]
        report = deployment.run_request_round(su.su_id)
        cells = env.num_channels * env.num_blocks
        ct_bytes = 4 + (2 * PACKED_KEY_BITS + 7) // 8
        unpacked_estimate = cells * ct_bytes
        k = deployment.layout.num_slots
        assert report.request_bytes < unpacked_estimate / (k - 1)

    def test_stp_work_scales_with_chunks(self, deployment, packed_scenario):
        env = packed_scenario.environment
        k = deployment.layout.num_slots
        chunks_per_row = deployment.layout.chunk_count(env.num_blocks)
        expected_per_round = env.num_channels * chunks_per_row
        # Dummies add dummy_fraction more.
        converted = deployment.stp.stats.cells_decrypted
        rounds = deployment.sdc.chunks_processed / expected_per_round
        assert converted >= deployment.sdc.chunks_processed  # + dummies


class TestRobustness:
    def test_unknown_round_rejected(self, deployment):
        response = PackedSignExtractionResponse("packed-round-999", "su", ())
        with pytest.raises(ProtocolError):
            deployment.sdc.finish_request(response)

    def test_wrong_su_rejected(self, deployment, packed_scenario):
        su = packed_scenario.sus[0]
        request = deployment.su_client(su.su_id).prepare_request()
        extraction = deployment.sdc.start_request(request)
        spoofed = PackedSignExtractionResponse(
            extraction.round_id, "other-su", ()
        )
        with pytest.raises(ProtocolError):
            deployment.sdc.finish_request(spoofed)
        conversion = deployment.stp.handle_sign_extraction(extraction)
        deployment.sdc.finish_request(conversion)

    def test_unregistered_su_rejected(self, deployment, packed_scenario, fresh_rng):
        from repro.pisa.packed import PackedSignExtractionRequest

        request = PackedSignExtractionRequest(
            round_id="r", su_id="ghost",
            chunks=(deployment.stp.group_public_key.encrypt(0, rng=fresh_rng),),
        )
        with pytest.raises(ProtocolError):
            deployment.stp.handle_sign_extraction(request)


class TestDummyDilution:
    def test_extraction_carries_dummies(self, deployment, packed_scenario):
        su = packed_scenario.sus[0]
        request = deployment.su_client(su.su_id).prepare_request()
        extraction = deployment.sdc.start_request(request)
        env = packed_scenario.environment
        real = env.num_channels * deployment.layout.chunk_count(env.num_blocks)
        assert len(extraction.chunks) > real
        conversion = deployment.stp.handle_sign_extraction(extraction)
        report = deployment.sdc.finish_request(conversion)

    def test_shuffle_changes_order(self, packed_scenario):
        """Two SDCs with different randomness place real chunks differently."""
        positions = []
        for seed in ("shuffle-a", "shuffle-b"):
            coord = PackedCoordinator(
                packed_scenario.environment, key_bits=PACKED_KEY_BITS,
                rng=DeterministicRandomSource(seed),
            )
            su = packed_scenario.sus[0]
            coord.enroll_su(su)
            request = coord.su_client(su.su_id).prepare_request()
            extraction = coord.sdc.start_request(request)
            pending = coord.sdc._pending[extraction.round_id]
            positions.append(pending.real_positions)
        assert positions[0] != positions[1]
