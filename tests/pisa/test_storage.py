"""Tests for SDC/directory persistence — restart without losing safety."""

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.signatures import RsaFdhSigner, generate_rsa_keypair
from repro.errors import SerializationError
from repro.pisa.sdc_server import SdcServer
from repro.pisa.storage import (
    restore_directory,
    restore_sdc_state,
    serialize_directory,
    serialize_sdc_state,
)


@pytest.fixture()
def fresh_sdc_factory(pisa_scenario, coordinator):
    """Builds empty SDCs sharing the deployed system's environment/keys."""

    def build():
        rng = DeterministicRandomSource("storage-sdc")
        _, signing = generate_rsa_keypair(128, rng=rng)
        return SdcServer(
            pisa_scenario.environment,
            directory=coordinator.stp.directory,
            signer=RsaFdhSigner(signing),
            issuer_id="sdc-restored",
            rng=rng,
        )

    return build


class TestSdcSnapshot:
    def test_roundtrip_preserves_budget(self, coordinator, fresh_sdc_factory):
        """A restored SDC must hold the exact encrypted aggregate."""
        blob = serialize_sdc_state(coordinator.sdc)
        restored = fresh_sdc_factory()
        count = restore_sdc_state(restored, blob)
        assert count == coordinator.sdc.num_tracked_pus
        env = coordinator.environment
        for c in range(env.num_channels):
            for b in range(env.num_blocks):
                original = coordinator.sdc.kernel.cell(c, b)
                copy = restored.kernel.cell(c, b)
                assert (original is None) == (copy is None)
                if original is not None:
                    assert copy.ciphertext == original.ciphertext

    def test_restored_sdc_decides_identically(
        self, coordinator, fresh_sdc_factory, pisa_scenario
    ):
        """The real safety property: decisions survive the restart."""
        su = pisa_scenario.sus[0]
        client = coordinator.su_client(su.su_id)
        request = client.prepare_request()

        restored = fresh_sdc_factory()
        restore_sdc_state(restored, serialize_sdc_state(coordinator.sdc))

        for sdc in (coordinator.sdc, restored):
            extraction = sdc.start_request(request)
            conversion = coordinator.stp.handle_sign_extraction(extraction)
            response = sdc.finish_request(conversion)
            outcome = client.process_response(response, coordinator.stp.directory)
            if sdc is coordinator.sdc:
                original = outcome.granted
        assert outcome.granted == original

    def test_restore_refuses_non_empty_target(self, coordinator):
        blob = serialize_sdc_state(coordinator.sdc)
        with pytest.raises(SerializationError):
            restore_sdc_state(coordinator.sdc, blob)  # already has state

    def test_bad_blob_rejected(self, fresh_sdc_factory):
        with pytest.raises(SerializationError):
            restore_sdc_state(fresh_sdc_factory(), b"garbage")

    def test_truncated_blob_rejected(self, coordinator, fresh_sdc_factory):
        blob = serialize_sdc_state(coordinator.sdc)
        with pytest.raises(SerializationError):
            restore_sdc_state(fresh_sdc_factory(), blob[:-3])


class TestDirectorySnapshot:
    def test_roundtrip(self, coordinator, pisa_scenario):
        directory = coordinator.stp.directory
        restored = restore_directory(serialize_directory(directory))
        assert restored.group_public_key == directory.group_public_key
        for su in pisa_scenario.sus:
            assert restored.su_key(su.su_id) == directory.su_key(su.su_id)
        assert restored.signing_key("sdc") == directory.signing_key("sdc")

    def test_bad_blob_rejected(self):
        with pytest.raises(SerializationError):
            restore_directory(b"garbage")

    def test_trailing_bytes_rejected(self, coordinator):
        blob = serialize_directory(coordinator.stp.directory)
        with pytest.raises(SerializationError):
            restore_directory(blob + b"\x00")
