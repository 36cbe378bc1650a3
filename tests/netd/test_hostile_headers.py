"""A matrix header is a peer's claim: it must fit the bytes behind it.

Every decoder that loops ``rows × cols`` times used to trust the header.
Eight bytes saying "20 million rows of no columns" kept
``decode_ciphertext_matrix`` busy for ~15 s (20 M empty lists), and a
43-byte ``phase1`` frame did the same to a shard worker.  The shapes
below must all be refused with the wire layer's own error before the
first allocation — and a worker handed one must not have drawn anything
or changed any state.
"""

import struct
import time
from unittest import mock

import pytest

from repro.crypto.serialization import (
    encode_bytes,
    encode_ciphertext,
    encode_int,
    encode_private_key,
    encode_public_key,
    encode_str,
)
from repro.errors import SerializationError, TransportError
from repro.netd.wire import (
    decode_phase1_request,
    decode_phase1_response,
    encode_cells,
    encode_control,
)
from repro.netd.worker import ShardState, StpState
from repro.pisa import kernel
from repro.pisa.kernel import CellTable
from repro.pisa.messages import SignExtractionRequest, SignExtractionResponse
from repro.pisa.storage import encode_shard_state, serialize_shard_state
from repro.watch.scenario import ScenarioConfig, build_scenario

#: ``(rows, cols)``: rows of nothing, and more cells than the buffer
#: could hold.
SHAPES = [
    pytest.param(20_000_000, 0, id="rows-of-no-columns"),
    pytest.param((1 << 32) - 1, 0, id="max-rows-of-no-columns"),
    pytest.param(60_000, 60_000, id="more-cells-than-bytes"),
]


def _ints(values) -> bytes:
    return encode_int(len(values)) + b"".join(encode_int(v) for v in values)


def _message_header(rows, cols) -> bytes:
    return encode_str("r-1") + encode_str("su-1") + struct.pack(">II", rows, cols)


def _phase1_request_header(rows, cols, listed=0) -> bytes:
    columns = _ints(range(listed))
    return b"".join(
        [encode_str("r-1"), encode_str("su-1"), encode_str("shard-0"),
         encode_int(0), columns, columns, encode_int(rows), encode_int(cols)]
    )


def _phase1_response_header(rows, cols, listed=0) -> bytes:
    return b"".join(
        [encode_str("r-1"), encode_str("shard-0"), _ints(range(listed)),
         encode_int(rows), encode_int(cols)]
    )


DECODERS = [
    pytest.param(SignExtractionRequest.from_bytes, _message_header, id="sign_req"),
    pytest.param(SignExtractionResponse.from_bytes, _message_header, id="sign_resp"),
    pytest.param(decode_phase1_request, _phase1_request_header, id="phase1_req"),
    pytest.param(decode_phase1_response, _phase1_response_header, id="phase1_resp"),
]


def _refused_quickly(call) -> None:
    """``call`` raises ``SerializationError`` in under 10 ms (best of three,
    so one scheduler hiccup cannot fail a decoder that does no work)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(SerializationError):
            call()
        best = min(best, time.perf_counter() - start)
    assert best < 0.010, f"refusal took {best * 1e3:.1f} ms"


@pytest.mark.parametrize("rows, cols", SHAPES)
@pytest.mark.parametrize("decode, header", DECODERS)
def test_hostile_shape_refused_before_any_work(decode, header, rows, cols, keypair):
    payload = header(rows, cols)
    _refused_quickly(lambda: decode(payload, keypair.public_key))


@pytest.mark.parametrize(
    "decode, header",
    [
        pytest.param(decode_phase1_request, _phase1_request_header, id="phase1_req"),
        pytest.param(decode_phase1_response, _phase1_response_header, id="phase1_resp"),
    ],
)
def test_width_must_match_the_column_list(decode, header, keypair):
    # One row, three cells claimed, two columns listed; the cells that
    # would follow are never looked at.
    payload = header(1, 3, 2) + bytes(64)
    with pytest.raises(SerializationError, match="3 cells wide but lists 2"):
        decode(payload, keypair.public_key)


def test_phase1_request_needs_one_block_per_column(keypair):
    payload = b"".join(
        [encode_str("r-1"), encode_str("su-1"), encode_str("shard-0"),
         encode_int(0), _ints([0, 1]), _ints([7]), encode_int(1), encode_int(2)]
    )
    with pytest.raises(SerializationError, match="one block per column"):
        decode_phase1_request(payload, keypair.public_key)


# -- the same frames against live workers ------------------------------------------


@pytest.fixture()
def shard_worker(keypair):
    cells = CellTable.of(build_scenario(ScenarioConfig(seed=5)).environment)
    payload = encode_control(
        {"role": "shard", "cells": encode_cells(cells), "fence_token": 3},
        encode_public_key(keypair.public_key),
        encode_shard_state("shard-0", -1, [0, 1, 2], ()),
    )
    return ShardState(payload)


@pytest.mark.parametrize("rows, cols", SHAPES)
@pytest.mark.parametrize("kind, header", [("phase1", _phase1_request_header)])
def test_live_shard_worker_refuses_without_state_change(
    shard_worker, kind, header, rows, cols
):
    payload = header(rows, cols)
    shard = shard_worker.shard
    before = (serialize_shard_state(shard), shard.fence_token)
    _refused_quickly(lambda: shard_worker.handle(kind, payload))
    assert (serialize_shard_state(shard), shard.fence_token) == before


def test_retired_phase2_frame_is_refused_typed(shard_worker, second_keypair, fresh_rng):
    # Phase 2 runs on the front; a shard serves no ``phase2`` kind.  The
    # frame below is well formed in the layout shards used to serve —
    # the SU's key, then round, shard, a fresh fence token, the columns,
    # the shape and each converted sign with its ε flag — so only the
    # kind itself can refuse it: no ΣQ̃ inverse, no fence ratchet.
    su_pk = second_keypair.public_key
    cells = [encode_ciphertext(su_pk.encrypt(1, rng=fresh_rng)) + encode_int(flag)
             for flag in (1, 0)]
    payload = b"".join(
        [encode_bytes(encode_public_key(su_pk)), encode_str("r-1"),
         encode_str("shard-0"), encode_int(9), _ints([0, 1]), encode_int(1),
         encode_int(2), *cells]
    )
    shard = shard_worker.shard
    before = (serialize_shard_state(shard), shard.fence_token)
    with mock.patch.object(kernel, "modinv", wraps=kernel.modinv) as inverse:
        with pytest.raises(TransportError, match="phase2"):
            shard_worker.handle("phase2", payload)
    assert inverse.call_count == 0
    assert (serialize_shard_state(shard), shard.fence_token) == before


class _CountingAuthority:
    """The STP worker's only source of randomness; counts what it is asked."""

    def __init__(self) -> None:
        self.transacts = 0

    def transact(self, kind, payload):
        self.transacts += 1
        raise AssertionError("a refused frame must not reach the draw stream")


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_live_stp_worker_refuses_without_a_draw(keypair, second_keypair, rows, cols):
    authority = _CountingAuthority()
    worker = StpState(
        encode_control(
            {"role": "stp", "key_bits": 256, "indicator_bound": 1 << 66, "sus": ["su-1"]},
            encode_private_key(keypair.private_key),
            encode_public_key(second_keypair.public_key),
        ),
        authority,
    )
    before = worker.ping_counts()
    payload = _message_header(rows, cols)
    _refused_quickly(lambda: worker.handle("sign_req", payload))
    assert authority.transacts == 0
    assert worker.ping_counts() == before
