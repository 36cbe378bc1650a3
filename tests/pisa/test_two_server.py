"""Tests for the STP-free two-server variant (§VII future work)."""

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ProtocolError, SerializationError
from repro.pisa.two_server import (
    BackendServer,
    PartialSignExtractionRequest,
    TwoServerCoordinator,
    deal_two_server_keys,
)
from repro.watch.sdc import PlaintextSDC
from repro.watch.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def deployment(pisa_scenario):
    coord = TwoServerCoordinator(
        pisa_scenario.environment,
        key_bits=256,
        rng=DeterministicRandomSource("two-server"),
    )
    for pu in pisa_scenario.pus:
        coord.enroll_pu(pu)
    for su in pisa_scenario.sus:
        coord.enroll_su(su)
    return coord


class TestDecisionEquivalence:
    def test_matches_plaintext_oracle(self, deployment, oracle, pisa_scenario):
        for su in pisa_scenario.sus:
            plain = oracle.process_request(su)
            report = deployment.run_request_round(su.su_id)
            assert report.granted == plain.granted, su.su_id

    def test_matches_stp_variant(self, pisa_scenario, coordinator, deployment):
        """Both privacy-preserving variants must agree with each other."""
        for su in pisa_scenario.sus:
            stp_report = coordinator.run_request_round(su.su_id)
            two_server_report = deployment.run_request_round(
                su.su_id, reuse_cached_request=True
            )
            assert stp_report.granted == two_server_report.granted

    def test_refresh_path(self, deployment, pisa_scenario):
        su = pisa_scenario.sus[0]
        fresh = deployment.run_request_round(su.su_id)
        cached = deployment.run_request_round(su.su_id, reuse_cached_request=True)
        assert fresh.granted == cached.granted


class TestTrustModel:
    def test_backend_cannot_decrypt_alone(self, deployment, fresh_rng):
        """The backend's share alone cannot open a protocol ciphertext."""
        from repro.crypto.threshold import combine_partials

        pk = deployment.group_public_key
        ct = pk.encrypt(12345, rng=fresh_rng)
        own = deployment.backend._share.partial_decrypt(ct)
        from repro.errors import DecryptionError

        with pytest.raises(DecryptionError):
            combine_partials(pk, [own])

    def test_share_key_mismatch_rejected(self, fresh_rng):
        keypair_a, directory_a = deal_two_server_keys(128, rng=fresh_rng)
        keypair_b, _ = deal_two_server_keys(128, rng=fresh_rng)
        with pytest.raises(ProtocolError):
            BackendServer(keypair_b.shares[1], directory_a)

    def test_unregistered_su_rejected(self, deployment, pisa_scenario, fresh_rng):
        su = pisa_scenario.sus[0]
        request = deployment.su_client(su.su_id).prepare_request()
        extraction = deployment.front.start_request(request)
        spoofed = PartialSignExtractionRequest(
            round_id=extraction.round_id,
            su_id="ghost",
            matrix=extraction.matrix,
            partials=extraction.partials,
        )
        with pytest.raises(ProtocolError):
            deployment.backend.handle_sign_extraction(spoofed)
        # Finish the legitimate round to leave clean state.
        conversion = deployment.backend.handle_sign_extraction(extraction)
        deployment.front.finish_request(conversion)


class TestMessages:
    def test_partials_shape_validated(self, deployment, pisa_scenario):
        su = pisa_scenario.sus[0]
        request = deployment.su_client(su.su_id).prepare_request()
        extraction = deployment.front.start_request(request)
        with pytest.raises(SerializationError):
            PartialSignExtractionRequest(
                round_id=extraction.round_id,
                su_id=extraction.su_id,
                matrix=extraction.matrix,
                partials=extraction.partials[:-1],
            )
        conversion = deployment.backend.handle_sign_extraction(extraction)
        deployment.front.finish_request(conversion)

    def test_wire_size_roughly_doubles(self, deployment, pisa_scenario):
        """Extraction carries matrix + partials: ≈2x the STP variant's Ṽ."""
        su = pisa_scenario.sus[0]
        report = deployment.run_request_round(su.su_id, reuse_cached_request=True)
        assert report.sign_extraction_bytes > 1.7 * report.request_bytes


class TestAccounting:
    def test_four_messages_per_round(self, deployment, pisa_scenario):
        before = deployment.transport.count()
        deployment.run_request_round(
            pisa_scenario.sus[0].su_id, reuse_cached_request=True
        )
        assert deployment.transport.count() - before == 4

    def test_backend_combined_every_cell(self, deployment, pisa_scenario):
        env = pisa_scenario.environment
        cells_per_round = env.num_channels * env.num_blocks
        stats = deployment.backend.stats
        assert stats.cells_decrypted % cells_per_round == 0
        assert stats.cells_decrypted > 0
