"""Frame envelope properties: round-trips, corruption rejection, streaming.

The frame layer must carry every canonical protocol encoding verbatim
(the socket plane adds framing, not a second serialisation format) and
refuse anything torn, truncated, or bit-flipped — a TCP stream with a
corrupt frame has no trustworthy continuation.  The streaming decoder is
the production reader, so it is also driven over real sockets here: a
``socketpair`` for the stream itself, a loopback server for what a
:class:`~repro.netd.transport.PeerClient` makes of a faulty peer.
"""

import random
import socket
import sys
import threading
import time
import zlib

import pytest

from repro.errors import HandshakeTimeoutError, IntegrityError, LinkDownError
from repro.netd import transport
from repro.netd.framing import (
    FRAME_MAGIC,
    FRAME_OVERHEAD,
    Frame,
    FrameDecoder,
    FrameStream,
    decode_frame,
    encode_frame,
)
from repro.netd.transport import FrameServer, PeerClient, classify_network_error
from repro.netd.wire import PROTOCOL_KINDS
from repro.telemetry import MetricsRegistry
from repro.pisa.license import TransmissionLicense
from repro.pisa.messages import (
    LicenseResponse,
    PUUpdateMessage,
    SignExtractionRequest,
    SignExtractionResponse,
    SURequestMessage,
)


def ct_matrix(pk, rng, rows, cols, base=0):
    return tuple(
        tuple(pk.encrypt(base + r * cols + c, rng=rng) for c in range(cols))
        for r in range(rows)
    )


@pytest.fixture()
def protocol_messages(keypair, second_keypair, fresh_rng):
    """One instance of every ``pisa.messages`` type (group + SU keys)."""
    group_pk = keypair.public_key
    su_pk = second_keypair.public_key
    lic = TransmissionLicense(
        su_id="su-1",
        issuer_id="sdc",
        request_digest=b"\x09" * 32,
        channels=(0, 2),
        issued_at=11,
    )
    return [
        PUUpdateMessage(
            pu_id="pu-3",
            block_index=12,
            ciphertexts=tuple(group_pk.encrypt(v, rng=fresh_rng) for v in (-5, 0, 7)),
        ),
        SURequestMessage(
            su_id="su-1",
            region_blocks=(0, 3, 5),
            matrix=ct_matrix(group_pk, fresh_rng, 2, 3),
        ),
        SignExtractionRequest(
            round_id="round-9", su_id="su-1", matrix=ct_matrix(group_pk, fresh_rng, 2, 2)
        ),
        SignExtractionResponse(
            round_id="round-9", su_id="su-1", matrix=ct_matrix(su_pk, fresh_rng, 2, 2)
        ),
        LicenseResponse(license=lic, encrypted_signature=su_pk.encrypt(1, rng=fresh_rng)),
    ]


class TestEveryProtocolMessageThroughFrames:
    def test_every_message_type_has_a_kind(self, protocol_messages):
        assert {type(m) for m in protocol_messages} == set(PROTOCOL_KINDS)

    def test_payload_bytes_survive_framing_verbatim(self, protocol_messages):
        for seq, message in enumerate(protocol_messages):
            payload = message.to_bytes()
            kind = PROTOCOL_KINDS[type(message)]
            encoded = encode_frame(kind, seq, payload)
            assert len(encoded) > len(payload) + FRAME_OVERHEAD  # kind+seq too
            frame, consumed = decode_frame(encoded)
            assert consumed == len(encoded)
            assert frame == Frame(kind, seq, payload)

    def test_decoded_payload_reconstructs_message(
        self, protocol_messages, keypair, second_keypair
    ):
        group_pk = keypair.public_key
        su_pk = second_keypair.public_key
        keys = {
            PUUpdateMessage: group_pk,
            SURequestMessage: group_pk,
            SignExtractionRequest: group_pk,
            SignExtractionResponse: su_pk,
            LicenseResponse: su_pk,
        }
        for message in protocol_messages:
            kind = PROTOCOL_KINDS[type(message)]
            frame, _ = decode_frame(encode_frame(kind, 1, message.to_bytes()))
            decoded = type(message).from_bytes(frame.payload, keys[type(message)])
            assert decoded.to_bytes() == message.to_bytes()


class TestCorruptionRejection:
    def test_bad_magic(self):
        data = bytearray(encode_frame("ping", 0, b"x"))
        data[0] ^= 0xFF
        with pytest.raises(IntegrityError, match="magic"):
            decode_frame(bytes(data))

    def test_truncated_inside_length_prefix(self):
        data = encode_frame("ping", 0, b"x")
        with pytest.raises(IntegrityError, match="length prefix"):
            decode_frame(data[:3])

    def test_torn_frame_before_crc(self):
        data = encode_frame("ping", 0, b"payload")
        with pytest.raises(IntegrityError, match="truncated"):
            decode_frame(data[:-3])

    def test_crc_mismatch(self):
        data = bytearray(encode_frame("ping", 0, b"payload"))
        data[-6] ^= 0x01  # flip a body byte, leave the CRC alone
        with pytest.raises(IntegrityError, match="CRC"):
            decode_frame(bytes(data))

    def test_oversize_length_rejected_before_reading_body(self):
        data = encode_frame("ping", 0, b"x" * 64)
        with pytest.raises(IntegrityError, match="cap"):
            decode_frame(data, max_frame_bytes=16)

    def test_trailing_garbage_in_body(self):
        body = encode_frame("ping", 0, b"x")[6:-4] + b"\x00"
        raw = FRAME_MAGIC + len(body).to_bytes(4, "big") + body
        raw += zlib.crc32(body).to_bytes(4, "big")
        with pytest.raises(IntegrityError, match="trailing"):
            decode_frame(raw)

    def test_every_single_byte_flip_is_detected(self):
        """Fuzz: no single-byte corruption ever yields a wrong frame."""
        original = encode_frame("phase1", 42, b"\x01\x02\x03" * 20)
        rng = random.Random(7)
        for _ in range(200):
            index = rng.randrange(len(original))
            flip = rng.randrange(1, 256)
            corrupt = bytearray(original)
            corrupt[index] ^= flip
            try:
                frame, _ = decode_frame(bytes(corrupt))
            except IntegrityError:
                continue
            pytest.fail(f"byte {index} xor {flip:#x} decoded as {frame!r}")


class TestFrameDecoderStreaming:
    def test_byte_at_a_time_feeding(self):
        frames = [
            encode_frame("a", 0, b"first"),
            encode_frame("b", 1, b""),
            encode_frame("c", 2, b"x" * 300),
        ]
        decoder = FrameDecoder()
        out = []
        for byte in b"".join(frames):
            out.extend(decoder.feed(bytes([byte])))
        assert [(f.kind, f.seq, f.payload) for f in out] == [
            ("a", 0, b"first"),
            ("b", 1, b""),
            ("c", 2, b"x" * 300),
        ]
        assert decoder.pending_bytes == 0

    def test_random_chunk_boundaries(self):
        rng = random.Random(13)
        frames = [
            encode_frame(f"k{i}", i, bytes(rng.randrange(256) for _ in range(rng.randrange(200))))
            for i in range(20)
        ]
        stream = b"".join(frames)
        decoder = FrameDecoder()
        out = []
        offset = 0
        while offset < len(stream):
            step = rng.randrange(1, 64)
            out.extend(decoder.feed(stream[offset : offset + step]))
            offset += step
        assert len(out) == 20
        assert [f.seq for f in out] == list(range(20))

    def test_stream_corruption_poisons_the_connection(self):
        decoder = FrameDecoder()
        good = encode_frame("a", 0, b"ok")
        assert len(decoder.feed(good)) == 1
        bad = bytearray(encode_frame("b", 1, b"bad"))
        bad[0] ^= 0xFF
        with pytest.raises(IntegrityError):
            decoder.feed(bytes(bad))


@pytest.fixture()
def wire():
    """A connected pair: the raw sending socket and the reading stream."""
    sender, receiver = socket.socketpair()
    stream = FrameStream(receiver)
    yield sender, stream
    sender.close()
    stream.close()


class TestFrameStreamOverARealSocket:
    def test_frame_delivered_one_byte_at_a_time(self, wire):
        sender, stream = wire
        data = encode_frame("phase1", 7, b"\x01\x02\x03" * 50)

        def trickle() -> None:
            for byte in data:
                sender.sendall(bytes([byte]))

        feeder = threading.Thread(target=trickle)
        feeder.start()
        assert stream.recv(timeout=10.0) == Frame("phase1", 7, b"\x01\x02\x03" * 50)
        feeder.join(timeout=10.0)
        assert not feeder.is_alive()

    def test_two_frames_in_one_segment(self, wire):
        sender, stream = wire
        sender.sendall(encode_frame("a", 0, b"first") + encode_frame("b", 1, b"second"))
        assert stream.recv(timeout=10.0) == Frame("a", 0, b"first")
        # The second came off the wire with the first: no further read.
        sender.close()
        assert stream.recv(timeout=10.0) == Frame("b", 1, b"second")

    def test_one_megabyte_frame(self, wire):
        sender, stream = wire
        payload = random.Random(5).randbytes(1 << 20)
        feeder = threading.Thread(
            target=sender.sendall, args=(encode_frame("big", 3, payload),)
        )
        feeder.start()
        assert stream.recv(timeout=30.0) == Frame("big", 3, payload)
        feeder.join(timeout=10.0)
        assert not feeder.is_alive()

    def test_peer_closing_mid_frame_is_a_dead_link(self, wire):
        sender, stream = wire
        sender.sendall(encode_frame("a", 0, b"torn")[:-3])
        sender.close()
        with pytest.raises(EOFError, match="mid-frame") as caught:
            stream.recv(timeout=10.0)
        assert isinstance(classify_network_error(caught.value, "p"), LinkDownError)

    def test_timeout_bounds_the_whole_frame_not_one_read(self, wire):
        """Every read below succeeds well inside the timeout; the frame
        as a whole does not arrive in it."""
        sender, stream = wire
        data = encode_frame("slow", 0, b"x" * 40)
        done = threading.Event()

        def trickle() -> None:
            for byte in data:
                if done.wait(0.02):
                    return
                sender.sendall(bytes([byte]))

        feeder = threading.Thread(target=trickle)
        feeder.start()
        try:
            start = time.monotonic()
            with pytest.raises(socket.timeout):
                stream.recv(timeout=0.2)
            assert time.monotonic() - start < 0.6  # 50+ bytes at 20 ms would be 1 s
        finally:
            done.set()
            feeder.join(timeout=10.0)
        assert not feeder.is_alive()


def _corrupt(index: int) -> bytes:
    data = bytearray(encode_frame("ok", 0, b"payload"))
    data[index] ^= 0xFF
    return bytes(data)


#: What the fake peer writes back in place of a reply (``None``: nothing,
#: ever), and what ``transact`` must make of it.
PEER_FAULTS = [
    pytest.param(_corrupt(0), IntegrityError, id="bad-magic"),
    pytest.param(_corrupt(-6), IntegrityError, id="flipped-crc"),
    pytest.param(FRAME_MAGIC + b"\xff\xff\xff\xff", IntegrityError, id="over-cap-length"),
    pytest.param(encode_frame("ok", 0, b"payload")[:-3], LinkDownError, id="closed-mid-frame"),
    pytest.param(None, LinkDownError, id="no-answer-in-time"),
]


@pytest.fixture()
def fake_peer():
    """A loopback peer that says hello and pings like a worker, and
    answers a ``fault`` frame with whatever bytes ``script["fault"]``
    holds, then drops the connection.  Yields ``(script, client, dial
    count)``."""
    script = {"fault": None}

    def serve(stream: FrameStream) -> None:
        while True:
            frame = stream.recv()
            if frame.kind == "fault":
                if script["fault"] is None:
                    stream.recv()  # say nothing until the client hangs up
                stream._sock.sendall(script["fault"])
                return
            stream.send("hello" if frame.kind == "hello" else "ok", frame.seq, b"")

    server = FrameServer("fake", "127.0.0.1", 0, serve)
    metrics = MetricsRegistry()
    client = PeerClient("fake", lambda: server.address, metrics=metrics)
    yield script, client, lambda: metrics.counter("netd_dials_total", peer="fake").value
    client.close()
    server.close()


class TestPeerClientAgainstAFaultyPeer:
    @pytest.mark.parametrize("fault, expected", PEER_FAULTS)
    def test_faulted_connection_is_never_reused(self, fake_peer, fault, expected):
        script, client, dials = fake_peer
        script["fault"] = fault
        assert client.transact("ping", b"").kind == "ok"
        assert client.transact("ping", b"").kind == "ok"
        assert dials() == 1  # pooled and reused
        with pytest.raises(expected):
            client.transact("fault", b"", timeout=0.2)
        assert client._idle == []
        assert client.transact("ping", b"").kind == "ok"
        assert dials() == 2

    def test_peer_that_never_says_hello(self, monkeypatch):
        monkeypatch.setattr(transport, "CONNECT_TIMEOUT_S", 0.2)
        # recv twice: the hello, then nothing until the client gives up.
        mute = FrameServer("mute", "127.0.0.1", 0, lambda s: (s.recv(), s.recv()))
        client = PeerClient("mute", lambda: mute.address)
        try:
            with pytest.raises(HandshakeTimeoutError, match="never said hello"):
                client.transact("ping", b"")
        finally:
            client.close()
            mute.close()

    def test_many_threads_share_one_client(self, fake_peer):
        """More callers than cores on one peer, switching every 10 µs:
        each exchange is paired with its own reply, the idle stack never
        outgrows the pool, and the counters lose no update."""
        _, client, dials = fake_peer
        callers, each = 16, 40
        failures: list[BaseException] = []

        def hammer() -> None:
            try:
                for _ in range(each):
                    assert client.transact("ping", b"").kind == "ok"
                    assert len(client._idle) <= transport.POOL_SIZE
            except BaseException as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        frames = client._metrics.counter("netd_frames_total", peer="fake").value
        assert frames == 2 * (callers * each + dials())
