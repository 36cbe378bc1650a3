"""The authority server and the broker-side proxies for remote workers.

Determinism across process boundaries hinges on one rule: **every
protocol draw happens against the broker's RNG stream**.  Local draws
(blinding triples, client nonces, keys) already do; the one remote
consumer — the STP worker's per-cell re-encryption nonces — reaches
back over the wire instead of drawing locally.  :class:`AuthorityServer`
is that reach-back point: it serves ``rand_exponents`` (a whole
request's nonces in one frame) and ``rand`` frames straight from the
coordinator's (possibly journaling) source, so the
unified draw stream — and therefore the epoch journal — covers the
whole deployment, and a socket-plane run replays the exact in-memory
draw order.

The same server doubles as the bootstrap registry.  Workers *pull*
their configuration: dial the authority, poll ``bootstrap`` until the
coordinator has registered a provider, apply it, bind, report ready.
Because providers serve the *current* state (blocks, cached PU updates,
registered SU keys), a crash restart re-runs the identical pull and
needs no push-style resync from the broker.

The proxies — :class:`RemoteStp`, :class:`RemoteShardSet` /
:class:`RemoteShard` — present the exact duck interfaces of
:class:`~repro.pisa.stp_server.StpServer` and
:class:`~repro.cluster.replica.ShardReplicaSet`, so the router, batch
allocator, and :class:`~repro.cluster.coordinator.ClusterSdc` run
unmodified over real sockets.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.cluster.replica import FailoverEvent, ReplicaSetBase
from repro.crypto.paillier import PaillierKeypair, PaillierPublicKey
from repro.crypto.rand import RandomSource
from repro.crypto.serialization import (
    decode_int,
    encode_int,
    encode_private_key,
    encode_public_key,
)
from repro.errors import ProtocolError, SerializationError, TransportError
from repro.netd.framing import FrameStream
from repro.netd.transport import FrameServer, PeerClient, SocketTransport
from repro.netd.wire import (
    MAX_EXPONENTS_PER_FRAME,
    MAX_RAND_BITS,
    decode_control,
    decode_exponents_request,
    decode_exponents_response,
    decode_phase1_response,
    encode_cells,
    encode_control,
    encode_error,
    encode_exponents_request,
    encode_exponents_response,
    encode_phase1_request,
)
from repro.pisa.kernel import CellTable
from repro.pisa.keys import KeyDirectory
from repro.pisa.messages import SignExtractionRequest, SignExtractionResponse
from repro.pisa.storage import encode_shard_state
from repro.pisa.stp_server import StpStats

__all__ = [
    "AuthorityServer",
    "RemoteRandomSource",
    "RemoteShard",
    "RemoteShardSet",
    "RemoteStp",
]


class AuthorityServer:
    """The broker's single source of randomness and bootstrap state.

    A thread per connection calls :meth:`_dispatch` directly: a
    journaling RandomSource fsyncs its journal on every draw and
    bootstrap providers encode private keys under locks, and a blocked
    thread stalls only its own connection.  A dispatch lock serialises
    the handlers, so concurrent remote draws still see one stream in
    one order — exactly like concurrent local ones.
    """

    def __init__(
        self,
        rng: RandomSource,
        host: str = "127.0.0.1",
        ssl_context=None,
        metrics=None,
    ) -> None:
        self._rng = rng
        self._host = host
        self._ssl = ssl_context
        self._metrics = metrics
        self._providers: dict[str, object] = {}
        #: Guards the provider table and the frame counter.
        self._lock = threading.Lock()
        #: Serialises _dispatch across connection threads: draw order
        #: must stay a single stream.
        self._dispatch_lock = threading.Lock()
        self._server: FrameServer | None = None
        self.address: tuple[str, int] | None = None

    def register_bootstrap(self, name: str, provider) -> None:
        """Register ``provider() -> bytes`` as worker ``name``'s config."""
        with self._lock:
            self._providers[name] = provider

    def start(self) -> tuple[str, int]:
        self._server = FrameServer(
            "authority", self._host, 0, self._serve, ssl_context=self._ssl
        )
        self.address = self._server.address
        return self.address

    def _serve(self, conn: FrameStream) -> None:
        while True:
            frame = conn.recv()
            try:
                kind, payload = self._dispatch(frame.kind, frame.payload)
            except Exception as exc:  # ship, don't drop the connection
                kind, payload = "err", encode_error(exc)
            conn.send(kind, frame.seq, payload)
            if self._metrics is not None:
                with self._lock:
                    self._metrics.counter(
                        "netd_frames_total", peer="authority"
                    ).inc(2)

    def _dispatch(self, kind: str, payload: bytes) -> tuple[str, bytes]:
        with self._dispatch_lock:
            return self._dispatch_locked(kind, payload)

    def _dispatch_locked(self, kind: str, payload: bytes) -> tuple[str, bytes]:
        if kind == "hello":
            return "hello", encode_control({})
        if kind == "ping":
            return "ok", encode_control({"ok": True})
        if kind == "rand":
            # Bounded before any draw happens, like ``rand_exponents``: a
            # peer cannot hold the dispatch lock for an unbounded width.
            obj, _ = decode_control(payload)
            bits = obj.get("bits")
            if type(bits) is not int or not 1 <= bits <= MAX_RAND_BITS:
                raise SerializationError(f"rand width {bits!r} is out of range")
            return "ok", encode_int(self._rng.randbits(bits))
        if kind == "rand_exponents":
            # The base-class loop, run where the stream lives: it consumes
            # the broker's source exactly as an in-process STP's draw would.
            count = decode_exponents_request(payload)
            return "ok", encode_exponents_response(self._rng.random_exponents(count))
        if kind == "bootstrap":
            obj, _ = decode_control(payload)
            name = obj.get("name")
            if not isinstance(name, str):
                raise SerializationError("bootstrap names no worker")
            with self._lock:
                provider = self._providers.get(name)
            if provider is None:
                # The worker started before the coordinator finished
                # building; tell it to poll again rather than erroring.
                return "retry", encode_control({})
            return "ok", provider()
        raise TransportError(f"authority cannot serve frame kind {kind!r}")

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()


class RemoteRandomSource(RandomSource):
    """A worker's view of the broker's draw stream.

    :meth:`random_exponents` — the STP's per-request nonce batch — is
    one ``rand_exponents`` frame: the authority runs the base-class
    loop against the broker's source.  Every other draw reduces to
    :meth:`randbits`, one ``rand`` frame each, with ``randbelow``'s
    rejection sampling running locally on top.  Either way the *number
    and width* of raw draws is bit-identical to an in-process
    :class:`~repro.crypto.rand.RandomSource` — the property the
    transcript-equivalence test rests on.
    """

    def __init__(self, peer: PeerClient) -> None:
        self._peer = peer

    def random_exponents(self, count: int) -> list[int]:
        exponents: list[int] = []
        while len(exponents) < count:
            take = min(count - len(exponents), MAX_EXPONENTS_PER_FRAME)
            frame = self._peer.transact("rand_exponents", encode_exponents_request(take))
            exponents.extend(decode_exponents_response(frame.payload, take))
        return exponents

    def randbits(self, bits: int) -> int:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if bits == 0:
            return 0
        frame = self._peer.transact("rand", encode_control({"bits": int(bits)}))
        value, _ = decode_int(frame.payload, 0)
        return value


class RemoteStp:
    """Broker-side proxy for an STP worker process.

    The key directory lives *here* (the broker enrols SUs and validates
    licenses); registrations are mirrored to the worker both live (a
    ``register_su`` frame) and via the bootstrap provider, so a
    restarted STP re-learns every key.  The group keypair is generated
    broker-side — at the exact draw position ``StpServer.__init__``
    would use — and shipped to the worker in its bootstrap.
    """

    def __init__(
        self,
        transport: SocketTransport,
        endpoint: str,
        keypair: PaillierKeypair,
        key_bits: int,
        indicator_bound: int,
    ) -> None:
        self._transport = transport
        self._endpoint = endpoint
        self._keypair = keypair
        self.key_bits = key_bits
        #: What the worker's ``StpServer`` checks opened values against.
        self._indicator_bound = indicator_bound
        self.directory = KeyDirectory(keypair.public_key)
        #: su_id → public key, in registration order (dicts preserve it);
        #: the bootstrap provider serialises this.
        self._su_registry: dict[str, PaillierPublicKey] = {}
        self._stats = StpStats()

    @property
    def stats(self) -> StpStats:
        """Conversions as counted here; stock hits and misses as the
        worker's ``ping`` reports them — one round trip, since only the
        worker knows how far its fill got (a restarted one counts from 0).
        """
        frame = self._transport.transact(self._endpoint, "ping", encode_control({}))
        info, _ = decode_control(frame.payload)
        return dataclasses.replace(
            self._stats,
            obfuscators_stocked=int(info["obfuscators_stocked"]),
            obfuscators_inline=int(info["obfuscators_inline"]),
        )

    @property
    def group_public_key(self) -> PaillierPublicKey:
        return self._keypair.public_key

    def bootstrap_payload(self) -> bytes:
        su_ids = list(self._su_registry)
        attachments = [encode_private_key(self._keypair.private_key)]
        attachments.extend(
            encode_public_key(self._su_registry[su_id]) for su_id in su_ids
        )
        return encode_control(
            {
                "role": "stp",
                "key_bits": self.key_bits,
                "indicator_bound": self._indicator_bound,
                "sus": su_ids,
            },
            *attachments,
        )

    def register_su(self, su_id: str, public_key: PaillierPublicKey) -> None:
        self.directory.register_su_key(su_id, public_key)
        self._su_registry[su_id] = public_key
        self._transport.transact(
            self._endpoint,
            "register_su",
            encode_control({"su_id": su_id}, encode_public_key(public_key)),
        )

    def handle_sign_extraction(
        self, request: SignExtractionRequest, span=None
    ) -> SignExtractionResponse:
        if span is not None:
            span.set_attribute("rows", len(request.matrix))
        # Same early validation (and error type) as the local server —
        # a missing key must not cost a round trip.
        if not self.directory.has_su_key(request.su_id):
            raise ProtocolError(f"SU {request.su_id!r} has not registered a key")
        su_key = self.directory.su_key(request.su_id)
        frame = self._transport.transact(
            self._endpoint, "sign_req", request.to_bytes()
        )
        response = SignExtractionResponse.from_bytes(frame.payload, su_key)
        cells = sum(len(row) for row in request.matrix)
        self._stats.cells_decrypted += cells
        self._stats.cells_encrypted += cells
        self._stats.conversions += 1
        return response


class RemoteShard:
    """The ``.primary`` face of a shard worker: sub-queries over frames."""

    def __init__(self, owner: "RemoteShardSet") -> None:
        self._owner = owner
        self.shard_id = owner.shard_id

    @property
    def alive(self) -> bool:
        return self._owner.supervisor.is_running(self.shard_id)

    def process_phase1(self, request):
        frame = self._owner.transact("phase1", encode_phase1_request(request))
        return decode_phase1_response(frame.payload, self._owner.group_public_key)

    def commit_epoch(self, epoch_id: int, fence_token: int) -> None:
        """The worker's own commit; a stale ``fence_token`` comes back as
        a wire-typed :class:`~repro.errors.FencedError`."""
        self._owner.commit_epoch(epoch_id, fence_token=fence_token)


class RemoteShardSet(ReplicaSetBase):
    """Broker-side stand-in for :class:`~repro.cluster.replica.ShardReplicaSet`.

    There is no warm standby process; the "promote" of the socket plane
    is *restart and re-bootstrap* — :meth:`promote` asks the supervisor
    for a live worker, and the worker pulls its full current state
    (the map's :class:`~repro.pisa.kernel.CellTable`, the fence token,
    blocks, latest update per PU, committed epoch — one
    ``PISA-SHARD-STATE-v1`` blob) from the bootstrap provider, which
    this object keeps serving from its caches.  Since ``⊕`` is
    commutative and the shard keeps only the latest update per PU,
    folding those latest updates onto a fresh shard reproduces the exact
    pre-crash aggregate ``W̃`` state.
    """

    def __init__(
        self,
        shard_id: str,
        transport: SocketTransport,
        supervisor,
        authority: AuthorityServer,
        cells: CellTable,
        group_public_key: PaillierPublicKey,
        clock=time.monotonic,
    ) -> None:
        # The base's ``fence_token`` travels in the bootstrap, so a
        # restarted worker resumes already fenced.
        super().__init__(shard_id, clock)
        self._transport = transport
        self.supervisor = supervisor
        #: The worker's whole view of the map, shipped as its kernel reads it.
        self._cells = encode_cells(cells)
        self.group_public_key = group_public_key
        self._blocks: set[int] = set()
        self._pu_updates: dict[str, bytes] = {}
        self._last_epoch = -1
        self.primary = RemoteShard(self)
        authority.register_bootstrap(shard_id, self.bootstrap_payload)

    # -- bootstrap -----------------------------------------------------------------

    def bootstrap_payload(self) -> bytes:
        with self._lock:
            return encode_control(
                {
                    "role": "shard",
                    "cells": self._cells,
                    "fence_token": self.fence_token,
                },
                encode_public_key(self.group_public_key),
                encode_shard_state(
                    self.shard_id,
                    self._last_epoch,
                    sorted(self._blocks),
                    (raw for _, raw in sorted(self._pu_updates.items())),
                ),
            )

    # -- wiring --------------------------------------------------------------------

    def transact(self, kind: str, payload: bytes):
        return self._transport.transact(self.shard_id, kind, payload)

    # -- state fan-out (mirrors ShardReplicaSet) -----------------------------------

    def assign_blocks(self, blocks: tuple[int, ...]) -> None:
        with self._lock:
            self._blocks.update(blocks)
        self.transact("assign_blocks", encode_control({"blocks": sorted(blocks)}))

    @property
    def blocks(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._blocks))

    def apply_pu_update(self, message, fence_token: int = 0) -> None:
        raw = message.to_bytes()
        token = fence_token or self.fence_token
        with self._lock:
            self._pu_updates[message.pu_id] = raw
        # The token is a frame prefix, never part of the message bytes —
        # a PUUpdateMessage's bytes are protocol transcript.
        self.transact("pu_update", encode_int(token) + raw)

    def commit_epoch(
        self, epoch_id: int, snapshot: bool = True, fence_token: int = 0
    ) -> None:
        token = fence_token or self.fence_token
        self.transact(
            "commit_epoch",
            encode_control(
                {
                    "epoch": epoch_id,
                    "snapshot": bool(snapshot),
                    "fence_token": token,
                }
            ),
        )
        # Only an epoch the worker accepted is one a restart may resume
        # from: a fenced or failed commit leaves the bootstrap unchanged.
        with self._lock:
            self._last_epoch = max(self._last_epoch, epoch_id)

    # -- fencing / gray failure ----------------------------------------------------

    def serving_replica(self):
        """The socket plane has no warm standby; the primary always serves."""
        return self.primary

    def install_fence(self, token: int) -> None:
        """Push a new lease token at the worker (best-effort if it is dead).

        The broker-side ratchet is what matters for safety: every
        subsequent frame — including the restarted worker's bootstrap —
        carries the new token, so a worker that missed the live ``fence``
        frame (it was the one being deposed) still learns it before it
        can serve a single request.
        """
        self._ratchet_fence(token)
        try:
            self.transact("fence", encode_control({"token": int(token)}))
        except TransportError:
            # Dead or unreachable worker: the bootstrap provider carries
            # the token; nothing the old incarnation does can commit.
            pass

    # -- failover ------------------------------------------------------------------

    def promote(self) -> FailoverEvent:
        """Restart-and-re-bootstrap; the socket plane's failover."""
        self.supervisor.ensure_running(self.shard_id)
        with self._lock:
            return self._log_failover(self._last_epoch, from_snapshot=False)

