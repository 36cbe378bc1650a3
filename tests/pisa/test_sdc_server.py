"""Unit tests for the PISA SDC server internals."""

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource
from repro.crypto.signatures import RsaFdhSigner, generate_rsa_keypair
from repro.errors import ProtocolError
from repro.pisa.keys import KeyDirectory
from repro.pisa.messages import PUUpdateMessage, SignExtractionResponse, SURequestMessage
from repro.pisa.sdc_server import SdcServer
from repro.watch.matrices import (
    aggregate,
    pu_update_matrix,
    zeros_matrix,
)


@pytest.fixture()
def group_keys():
    return generate_keypair(256, rng=DeterministicRandomSource("sdc-group"))


@pytest.fixture()
def sdc(scenario, group_keys):
    rng = DeterministicRandomSource("sdc-tests")
    directory = KeyDirectory(group_keys.public_key)
    _, signing = generate_rsa_keypair(128, rng=rng)
    return SdcServer(
        scenario.environment, directory, RsaFdhSigner(signing), rng=rng
    )


def make_update(pu, scenario, group_keys, rng):
    env = scenario.environment
    w = pu_update_matrix(pu, env.e_matrix, env.params)
    cts = tuple(
        group_keys.public_key.encrypt(int(w[c, pu.block_index]), rng=rng)
        for c in range(env.num_channels)
    )
    return PUUpdateMessage(pu.receiver_id, pu.block_index, cts)


class TestPuUpdateAggregation:
    def test_aggregate_matches_plaintext(self, sdc, scenario, group_keys, fresh_rng):
        """The encrypted W̃' must equal the plaintext Σ W_i everywhere."""
        env = scenario.environment
        for pu in scenario.pus:
            sdc.handle_pu_update(make_update(pu, scenario, group_keys, fresh_rng))
        expected = aggregate(
            [pu_update_matrix(pu, env.e_matrix, env.params) for pu in scenario.pus]
        )
        sk = group_keys.private_key
        for c in range(env.num_channels):
            for b in range(env.num_blocks):
                ct = sdc.kernel.cell(c, b)
                assert (0 if ct is None else sk.decrypt(ct)) == int(expected[c, b])

    def test_resubmission_subtracts_old(self, sdc, scenario, group_keys, fresh_rng):
        env = scenario.environment
        pu = scenario.pus[0]
        sdc.handle_pu_update(make_update(pu, scenario, group_keys, fresh_rng))
        switched = pu.switched_to(
            (pu.channel_slot + 1) % env.num_channels, signal_strength_mw=2e-4
        )
        sdc.handle_pu_update(make_update(switched, scenario, group_keys, fresh_rng))
        sk = group_keys.private_key
        # Old cell cancels back to zero; new cell carries T − E.
        old_cell = sdc.kernel.cell(pu.channel_slot, pu.block_index)
        assert sk.decrypt(old_cell) == 0
        new_w = pu_update_matrix(switched, env.e_matrix, env.params)
        new_cell = sdc.kernel.cell(switched.channel_slot, pu.block_index)
        assert sk.decrypt(new_cell) == int(
            new_w[switched.channel_slot, pu.block_index]
        )
        assert sdc.num_tracked_pus == 1

    def test_wrong_channel_count_rejected(self, sdc, group_keys, fresh_rng):
        cts = (group_keys.public_key.encrypt(0, rng=fresh_rng),)
        with pytest.raises(ProtocolError):
            sdc.handle_pu_update(PUUpdateMessage("pu", 0, cts))

    def test_foreign_key_rejected(self, sdc, scenario, fresh_rng):
        other = generate_keypair(256, rng=fresh_rng)
        cts = tuple(
            other.public_key.encrypt(0, rng=fresh_rng)
            for _ in range(scenario.params.num_channels)
        )
        with pytest.raises(ProtocolError):
            sdc.handle_pu_update(PUUpdateMessage("pu", 0, cts))


class TestRequestPhase1:
    def _request(self, sdc, scenario, group_keys, fresh_rng, su_id="su-0"):
        env = scenario.environment
        sdc.directory.register_su_key(
            su_id, generate_keypair(256, rng=fresh_rng).public_key
        )
        matrix = tuple(
            tuple(group_keys.public_key.encrypt(0, rng=fresh_rng) for _ in range(3))
            for _ in range(env.num_channels)
        )
        return SURequestMessage(su_id=su_id, region_blocks=(0, 1, 2), matrix=matrix)

    def test_produces_blinded_matrix(self, sdc, scenario, group_keys, fresh_rng):
        request = self._request(sdc, scenario, group_keys, fresh_rng)
        extraction = sdc.start_request(request)
        assert len(extraction.matrix) == scenario.params.num_channels
        assert len(extraction.matrix[0]) == 3
        assert sdc.pending_rounds == 1

    def test_blinded_values_hide_magnitude(self, sdc, scenario, group_keys, fresh_rng):
        """V = ε(αI − β) must not equal I for any cell (blinding applied)."""
        request = self._request(sdc, scenario, group_keys, fresh_rng)
        extraction = sdc.start_request(request)
        env = scenario.environment
        sk = group_keys.private_key
        for c, row in enumerate(extraction.matrix):
            for k, ct in enumerate(row):
                v = sk.decrypt(ct)
                i_plain = int(env.e_matrix[c, request.region_blocks[k]])  # R=0 here
                assert v != i_plain
                assert abs(v) > abs(i_plain)  # α ≥ 2 guarantees growth

    def test_sign_consistency_with_plaintext(self, sdc, scenario, group_keys, fresh_rng):
        """sign(ε·V) must equal sign'(I) cell by cell."""
        request = self._request(sdc, scenario, group_keys, fresh_rng)
        extraction = sdc.start_request(request)
        pending = sdc._pending[extraction.round_id]
        env = scenario.environment
        sk = group_keys.private_key
        for c, (v_row, b_row) in enumerate(zip(extraction.matrix, pending.blindings)):
            for k, (ct, cell) in enumerate(zip(v_row, b_row)):
                v = sk.decrypt(ct)
                i_plain = int(env.e_matrix[c, request.region_blocks[k]])
                assert (cell.epsilon * v > 0) == (i_plain > 0)

    def test_unknown_su_key_rejected(self, sdc, scenario, group_keys, fresh_rng):
        env = scenario.environment
        matrix = tuple(
            (group_keys.public_key.encrypt(0, rng=fresh_rng),)
            for _ in range(env.num_channels)
        )
        request = SURequestMessage("ghost", (0,), matrix)
        with pytest.raises(ProtocolError):
            sdc.start_request(request)

    def test_bad_block_rejected(self, sdc, scenario, group_keys, fresh_rng):
        request = self._request(sdc, scenario, group_keys, fresh_rng)
        bad = SURequestMessage(request.su_id, (0, 1, 999), request.matrix)
        with pytest.raises(ProtocolError):
            sdc.start_request(bad)

    def test_wrong_row_count_rejected(self, sdc, scenario, group_keys, fresh_rng):
        request = self._request(sdc, scenario, group_keys, fresh_rng)
        truncated = SURequestMessage(
            request.su_id, request.region_blocks, request.matrix[:-1]
        )
        with pytest.raises(ProtocolError):
            sdc.start_request(truncated)


class TestRequestPhase2:
    def test_unknown_round_rejected(self, sdc, fresh_rng):
        response = SignExtractionResponse("round-999", "su", ())
        with pytest.raises(ProtocolError):
            sdc.finish_request(response)

    def test_round_state_consumed(self, sdc, scenario, group_keys, fresh_rng):
        request = TestRequestPhase1._request(
            TestRequestPhase1(), sdc, scenario, group_keys, fresh_rng
        )
        extraction = sdc.start_request(request)
        su_key = sdc.directory.su_key(request.su_id)
        # Craft a well-formed all-grant response (X = ε per cell so that
        # ε·X = 1 → Q = 0).
        pending = sdc._pending[extraction.round_id]
        matrix = tuple(
            tuple(
                su_key.encrypt(cell.epsilon, rng=fresh_rng) for cell in row
            )
            for row in pending.blindings
        )
        response = SignExtractionResponse(extraction.round_id, request.su_id, matrix)
        sdc.finish_request(response)
        assert sdc.pending_rounds == 0
        with pytest.raises(ProtocolError):
            sdc.finish_request(response)  # replay rejected

    def test_wrong_su_rejected(self, sdc, scenario, group_keys, fresh_rng):
        request = TestRequestPhase1._request(
            TestRequestPhase1(), sdc, scenario, group_keys, fresh_rng
        )
        extraction = sdc.start_request(request)
        response = SignExtractionResponse(extraction.round_id, "other-su", ())
        with pytest.raises(ProtocolError):
            sdc.finish_request(response)
