"""Unit tests for the wire serialisation layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.serialization import (
    ciphertext_wire_size,
    decode_bytes,
    decode_ciphertext,
    decode_ciphertext_matrix,
    decode_int,
    decode_str,
    encode_bytes,
    encode_ciphertext,
    encode_ciphertext_matrix,
    encode_int,
    encode_str,
    encoded_int_size,
    matrix_wire_size,
)
from repro.errors import SerializationError


class TestIntEncoding:
    @pytest.mark.parametrize("value", [0, 1, 255, 256, 2**64, 2**4096 - 1])
    def test_roundtrip(self, value):
        blob = encode_int(value)
        decoded, offset = decode_int(blob)
        assert decoded == value
        assert offset == len(blob)

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_int(-1)

    def test_size_prediction(self):
        for value in (0, 1, 1000, 2**128):
            assert encoded_int_size(value) == len(encode_int(value))

    def test_truncated_prefix(self):
        with pytest.raises(SerializationError):
            decode_int(b"\x00\x00")

    def test_truncated_body(self):
        blob = encode_int(2**64)
        with pytest.raises(SerializationError):
            decode_int(blob[:-2])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**512))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_int(encode_int(value))
        assert decoded == value


class TestBytesEncoding:
    @pytest.mark.parametrize("data", [b"", b"x", b"hello world", bytes(range(256))])
    def test_roundtrip(self, data):
        decoded, offset = decode_bytes(encode_bytes(data))
        assert decoded == data

    def test_truncated(self):
        with pytest.raises(SerializationError):
            decode_bytes(encode_bytes(b"hello")[:-1])


#: A length-prefixed field whose body is not UTF-8 — what a hostile
#: peer puts where an id string belongs.
INVALID_UTF8_FIELD = encode_bytes(b"\xff\xfe\xfd")


class TestStrEncoding:
    @pytest.mark.parametrize("value", ["", "shard-0", "pu-ß-∅"])
    def test_roundtrip(self, value):
        decoded, offset = decode_str(encode_str(value) + b"rest")
        assert decoded == value
        assert offset == len(encode_str(value))

    def test_truncated(self):
        with pytest.raises(SerializationError):
            decode_str(encode_str("hello")[:-1])

    def test_invalid_utf8_is_a_typed_error(self):
        with pytest.raises(SerializationError, match="corrupt string"):
            decode_str(INVALID_UTF8_FIELD)

    def test_message_parsers_type_invalid_utf8(self, keypair):
        from repro.pisa.messages import PUUpdateMessage, SignExtractionRequest

        # The id is the first field of both messages; nothing after it
        # is reached, so the bare field is the whole hostile payload.
        for parser in (PUUpdateMessage, SignExtractionRequest):
            with pytest.raises(SerializationError, match="corrupt string"):
                parser.from_bytes(INVALID_UTF8_FIELD, keypair.public_key)


class TestCiphertextEncoding:
    def test_roundtrip(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        ct = pk.encrypt(-1234, rng=fresh_rng)
        decoded, offset = decode_ciphertext(encode_ciphertext(ct), pk)
        assert sk.decrypt(decoded) == -1234

    def test_range_validation(self, keypair):
        pk = keypair.public_key
        blob = encode_int(pk.n_sq + 5)
        with pytest.raises(SerializationError):
            decode_ciphertext(blob, pk)

    def test_wire_size_upper_bound(self, keypair, fresh_rng):
        pk = keypair.public_key
        for value in (0, 5, -5, 2**50):
            ct = pk.encrypt(value, rng=fresh_rng)
            assert len(encode_ciphertext(ct)) <= ciphertext_wire_size(pk)


class TestMatrixEncoding:
    def test_roundtrip(self, keypair, fresh_rng):
        pk, sk = keypair.public_key, keypair.private_key
        matrix = [[pk.encrypt(r * 10 + c, rng=fresh_rng) for c in range(4)] for r in range(3)]
        blob = encode_ciphertext_matrix(matrix)
        decoded, offset = decode_ciphertext_matrix(blob, pk)
        assert offset == len(blob)
        assert [[sk.decrypt(ct) for ct in row] for row in decoded] == [
            [r * 10 + c for c in range(4)] for r in range(3)
        ]

    def test_empty_matrix(self, keypair):
        blob = encode_ciphertext_matrix([])
        decoded, _ = decode_ciphertext_matrix(blob, keypair.public_key)
        assert decoded == []

    def test_ragged_matrix_rejected(self, keypair, fresh_rng):
        pk = keypair.public_key
        rows = [[pk.encrypt(0, rng=fresh_rng)], []]
        with pytest.raises(SerializationError):
            encode_ciphertext_matrix(rows)

    def test_wire_size_accounting(self, keypair, fresh_rng):
        pk = keypair.public_key
        matrix = [[pk.encrypt(i, rng=fresh_rng) for i in range(3)] for _ in range(2)]
        flat = [ct for row in matrix for ct in row]
        assert matrix_wire_size(flat) == len(encode_ciphertext_matrix(matrix))


class TestKeySerialization:
    def test_public_key_roundtrip(self, keypair):
        from repro.crypto.serialization import decode_public_key, encode_public_key

        pk = keypair.public_key
        assert decode_public_key(encode_public_key(pk)) == pk

    def test_private_key_roundtrip(self, keypair, fresh_rng):
        from repro.crypto.serialization import (
            decode_private_key,
            encode_private_key,
        )

        sk = decode_private_key(encode_private_key(keypair.private_key))
        ct = keypair.public_key.encrypt(-777, rng=fresh_rng)
        assert sk.decrypt(ct) == -777

    def test_bad_magic_rejected(self):
        from repro.crypto.serialization import decode_private_key, decode_public_key

        with pytest.raises(SerializationError):
            decode_public_key(b"garbage")
        with pytest.raises(SerializationError):
            decode_private_key(b"garbage")

    def test_trailing_bytes_rejected(self, keypair):
        from repro.crypto.serialization import decode_public_key, encode_public_key

        blob = encode_public_key(keypair.public_key)
        with pytest.raises(SerializationError):
            decode_public_key(blob + b"\x00")

