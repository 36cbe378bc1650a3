"""Wire codecs for shard sub-queries, control frames, cell tables and typed errors."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ProtocolError,
    SerializationError,
    TransportError,
)
from repro.netd.wire import (
    decode_cells,
    decode_control,
    decode_error,
    decode_phase1_request,
    decode_phase1_response,
    encode_cells,
    encode_control,
    encode_error,
    encode_phase1_request,
    encode_phase1_response,
    raise_remote_error,
)
from repro.cluster.shard import (
    ShardPhase1Request,
    ShardPhase1Response,
)
from repro.pisa.blinding import CellBlinding
from repro.pisa.kernel import CellTable


def ct_matrix(pk, rng, rows, cols, base=0):
    return tuple(
        tuple(pk.encrypt(base + r * cols + c, rng=rng) for c in range(cols))
        for r in range(rows)
    )


class TestShardCodecs:
    def test_phase1_request_roundtrip(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        request = ShardPhase1Request(
            round_id="r-1",
            su_id="su-1",
            shard_id="shard-0",
            columns=(1, 4),
            blocks=(3, 9),
            matrix=ct_matrix(pk, fresh_rng, 2, 2),
            blindings=(
                (
                    CellBlinding(alpha=3, beta=17, epsilon=1),
                    CellBlinding(alpha=5, beta=23, epsilon=-1),
                ),
                (
                    CellBlinding(alpha=7, beta=29, epsilon=-1),
                    CellBlinding(alpha=11, beta=31, epsilon=1),
                ),
            ),
        )
        decoded = decode_phase1_request(encode_phase1_request(request), pk)
        assert decoded.round_id == "r-1"
        assert decoded.columns == (1, 4)
        assert decoded.blocks == (3, 9)
        assert decoded.blindings == request.blindings
        assert [
            [sk.decrypt(ct) for ct in row] for row in decoded.matrix
        ] == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("cols", [1, 2])
    @pytest.mark.parametrize("nonce", [None, 41])
    def test_old_format_phase1_request_rejected(self, keypair, fresh_rng, cols, nonce):
        """A sub-query from before β became a plaintext blind — every
        cell followed by a ``has_r`` flag and, when set, a nonce ``r`` —
        no longer parses, with or without the nonce."""
        from repro.crypto.serialization import (
            encode_ciphertext,
            encode_int,
            encode_str,
        )

        pk = keypair.public_key
        header = b"".join(
            [
                encode_str("r-1"),
                encode_str("su-1"),
                encode_str("shard-0"),
                encode_int(0),  # fence token
                encode_int(cols) + b"".join(encode_int(k) for k in range(cols)),
                encode_int(cols) + b"".join(encode_int(k) for k in range(cols)),
                encode_int(1),  # rows
                encode_int(cols),
            ]
        )
        cell = b"".join(
            [
                encode_ciphertext(pk.encrypt(5, rng=fresh_rng)),
                encode_int(3),  # α
                encode_int(17),  # β
                encode_int(1),  # ε flag
            ]
        )
        old_tail = (
            encode_int(0) if nonce is None else encode_int(1) + encode_int(nonce)
        )
        current = decode_phase1_request(header + cell * cols, pk)
        assert current.blindings == ((CellBlinding(alpha=3, beta=17, epsilon=1),) * cols,)
        with pytest.raises(SerializationError):
            decode_phase1_request(header + (cell + old_tail) * cols, pk)

    def test_phase1_response_roundtrip(self, keypair, fresh_rng):
        pk = keypair.public_key
        response = ShardPhase1Response(
            round_id="r-1",
            shard_id="shard-1",
            columns=(0, 2, 5),
            matrix=ct_matrix(pk, fresh_rng, 2, 3),
        )
        decoded = decode_phase1_response(encode_phase1_response(response), pk)
        assert decoded.columns == (0, 2, 5)
        assert len(decoded.matrix) == 2 and len(decoded.matrix[0]) == 3

    def test_phase1_fence_token_roundtrips(self, keypair, fresh_rng):
        pk = keypair.public_key
        request = ShardPhase1Request(
            round_id="r-1",
            su_id="su-1",
            shard_id="shard-0",
            columns=(0,),
            blocks=(0,),
            matrix=ct_matrix(pk, fresh_rng, 1, 1),
            blindings=((CellBlinding(alpha=3, beta=17, epsilon=1),),),
            fence_token=42,
        )
        decoded = decode_phase1_request(encode_phase1_request(request), pk)
        assert decoded.fence_token == 42
        # The default (unfenced) token survives too — legacy encoders.
        import dataclasses

        unfenced = dataclasses.replace(request, fence_token=0)
        decoded = decode_phase1_request(encode_phase1_request(unfenced), pk)
        assert decoded.fence_token == 0

    def test_trailing_bytes_rejected(self, keypair, fresh_rng):
        pk = keypair.public_key
        response = ShardPhase1Response(
            round_id="r", shard_id="s", columns=(0,), matrix=ct_matrix(pk, fresh_rng, 1, 1)
        )
        with pytest.raises(SerializationError, match="trailing"):
            decode_phase1_response(encode_phase1_response(response) + b"\x00", pk)

    @pytest.mark.parametrize(
        "decode",
        [
            decode_phase1_request,
            decode_phase1_response,
        ],
    )
    def test_invalid_utf8_id_rejected_typed(self, decode, keypair):
        # A peer's garbage where the round id belongs must surface as the
        # wire layer's own error, never a bare UnicodeDecodeError.
        from repro.crypto.serialization import encode_bytes

        with pytest.raises(SerializationError, match="corrupt string"):
            decode(encode_bytes(b"\xff\xfe\xfd"), keypair.public_key)


class TestControlFrames:
    def test_header_and_attachments_roundtrip(self):
        payload = encode_control({"name": "shard-0", "epoch": 3}, b"blob-a", b"")
        obj, attachments = decode_control(payload, num_attachments=2)
        assert obj == {"name": "shard-0", "epoch": 3}
        assert attachments == [b"blob-a", b""]

    def test_unconsumed_attachments_rejected(self):
        payload = encode_control({}, b"blob")
        with pytest.raises(SerializationError, match="trailing"):
            decode_control(payload)  # caller forgot num_attachments

    def test_non_object_header_rejected(self):
        from repro.crypto.serialization import encode_bytes

        with pytest.raises(SerializationError, match="JSON object"):
            decode_control(encode_bytes(b"[1,2]"))

    def test_garbage_header_rejected(self):
        from repro.crypto.serialization import encode_bytes

        with pytest.raises(SerializationError, match="malformed"):
            decode_control(encode_bytes(b"\xff\xfe not json"))


class TestCellTable:
    """A shard's whole view of the map crosses the bootstrap as JSON."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1), (100, 600)])
        | st.tuples(st.integers(1, 6), st.integers(1, 12)),
        delta=st.integers(1, 2**64),
        first=st.integers(0, 2**80),
        bits=st.sampled_from([1, 53, 54, 64, 100]),
        seed=st.integers(0, 2**32),
    )
    @example(shape=(1, 1), delta=1, first=3_981_071_705_534_974, bits=1, seed=0)
    @example(shape=(100, 600), delta=40, first=2**53 + 1, bits=54, seed=1)
    def test_bootstrap_header_round_trip_is_exact(self, shape, delta, first, bits, seed):
        # Entries beyond 2^53 must survive: JSON carries them as exact ints.
        rows, cols = shape
        rng = random.Random(seed)
        e = [[rng.getrandbits(bits) for _ in range(cols)] for _ in range(rows)]
        e[0][0] = first
        table = CellTable(rows, cols, delta, tuple(tuple(row) for row in e))
        obj, _ = decode_control(encode_control({"role": "shard", "cells": encode_cells(table)}))
        assert decode_cells(obj["cells"]) == table

    def test_of_reads_the_maps_ints(self, scenario):
        env = scenario.environment
        table = CellTable.of(env)
        assert (table.num_channels, table.num_blocks) == env.e_matrix.shape
        assert table.delta == env.params.sinr_plus_redn_int
        assert all(type(v) is int for row in table.e for v in row)
        assert [list(row) for row in table.e] == env.e_matrix.tolist()

    def test_the_socket_coordinator_ships_its_maps_table(self):
        """What every shard worker is bootstrapped with is the table of the
        broker's own map: the equivalence scenario's, cell for cell."""
        from repro.crypto.rand import DeterministicRandomSource
        from repro.netd.plane import SocketClusterCoordinator
        from repro.netd.worker import ShardState
        from repro.watch.scenario import build_scenario
        from tests.netd.test_equivalence import SCENARIO_CONFIG

        scenario = build_scenario(SCENARIO_CONFIG)
        coordinator = SocketClusterCoordinator(
            scenario.environment,
            num_shards=2,
            key_bits=256,
            rng=DeterministicRandomSource(seed=7),
        )
        try:
            expected = CellTable.of(scenario.environment)
            for shard_id in ("shard-0", "shard-1"):
                # What the authority serves the worker's bootstrap pull.
                payload = coordinator._shard_bootstrap(
                    coordinator.replica_sets[shard_id]
                )
                obj, _ = decode_control(payload, num_attachments=2)
                assert decode_cells(obj["cells"]) == expected
                assert ShardState(payload).shard._kernel.cells == expected
        finally:
            coordinator.close()


class TestTypedRemoteErrors:
    def test_known_class_reraised_typed(self):
        payload = encode_error(ProtocolError("SU 'su-9' is not registered"))
        assert decode_error(payload) == (
            "ProtocolError",
            "SU 'su-9' is not registered",
        )
        with pytest.raises(ProtocolError, match="stp: SU 'su-9'"):
            raise_remote_error(payload, "stp")

    def test_unknown_class_degrades_to_transport_error(self):
        payload = encode_error(ValueError("not a repro error"))
        with pytest.raises(TransportError, match="ValueError"):
            raise_remote_error(payload, "shard-0")
