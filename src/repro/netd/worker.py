"""Socket-plane worker process: ``python -m repro.netd.worker``.

One executable, two roles:

* ``shard`` — hosts one :class:`~repro.cluster.shard.SdcShard` and
  serves phase-1 sub-queries plus state fan-out frames;
* ``stp`` — hosts an :class:`~repro.pisa.stp_server.StpServer` whose
  re-encryption nonces come from the broker's authority, one frame per
  request, via :class:`~repro.netd.remote.RemoteRandomSource`, keeping
  the deployment on one draw stream; between requests it spends its
  idle time on the obfuscators ``h_n^s`` of the nonces already drawn
  for the next ones (:meth:`~repro.pisa.stp_server.StpServer.fill_stock`).

Startup is a *pull*: dial the authority, poll ``bootstrap`` until the
coordinator registers this worker's provider, apply the config, bind an
ephemeral port, atomically write the readiness file.  A crash restart
re-runs exactly the same pull — the provider serves current state — so
the supervisor never pushes anything.  A shard's config carries all
that its kernel reads of the map, the
:class:`~repro.pisa.kernel.CellTable` (``cells``), so a shard worker
never builds the map and never loads numpy; a malformed table is
refused before the readiness file exists.  Nor does it keep a disk: the
bootstrap's ``PISA-SHARD-STATE-v1`` blob is its whole state, and the
broker writes the shard's durable rows into the deployment's one store.

Every accepted connection has a thread of its own that reads a frame,
runs the handler and writes the reply, so pings on one connection stay
responsive while a shard grinds through homomorphic arithmetic on
another.  The main thread only waits: for SIGTERM/SIGINT or a
``shutdown`` frame, or for the broker that spawned it to disappear.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
import threading
import time

from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.serialization import (
    decode_int,
    decode_private_key,
    decode_public_key,
)
from repro.errors import (
    HandshakeTimeoutError,
    LinkDownError,
    ReproError,
    SerializationError,
    TransportError,
)
from repro.netd.framing import FrameStream
from repro.netd.transport import CONNECT_TIMEOUT_S, FrameServer, PeerClient, TlsSpec
from repro.netd.wire import (
    decode_cells,
    decode_control,
    decode_phase1_request,
    encode_control,
    encode_error,
    encode_phase1_response,
)
from repro.pisa.messages import PUUpdateMessage, SignExtractionRequest

_BOOTSTRAP_POLL_S = 0.05
_BOOTSTRAP_TIMEOUT_S = 60.0


def _pull_bootstrap(authority: PeerClient, name: str, stopping) -> bytes | None:
    """Poll the authority until our provider is registered.

    ``stopping(wait_s)`` is the poll's sleep: true, and the pull gives
    up with ``None``, once the worker has been told to stop.
    """
    deadline = time.monotonic() + _BOOTSTRAP_TIMEOUT_S
    while time.monotonic() <= deadline:
        try:
            frame = authority.transact(
                "bootstrap", encode_control({"name": name}), timeout=CONNECT_TIMEOUT_S
            )
        except (LinkDownError, HandshakeTimeoutError):
            pass  # no authority yet, or not any more: the next poll dials again
        else:
            if frame.kind == "ok":
                return frame.payload
        if stopping(_BOOTSTRAP_POLL_S):
            return None
    raise TransportError(f"worker {name!r}: bootstrap timed out")


class ShardState:
    """A shard worker's handler table over its local :class:`SdcShard`."""

    role = "shard"
    executor_threads = 1

    def __init__(self, payload: bytes) -> None:
        # The shard role's own import: the shard, and no map — the
        # bootstrap's cell table is everything the kernel reads of it.
        from repro.cluster.shard import boot_shard

        obj, (key_raw, live) = decode_control(payload, num_attachments=2)
        self.group_public_key = decode_public_key(key_raw)
        #: Chaos seam: artificial per-sub-query service delay (seconds),
        #: armed by a ``chaos_delay`` frame for gray-failure drills.
        self.delay_s = 0.0
        # A (re)start boots from the replica set's blob exactly as an
        # in-process replica does, and learns the current lease *before*
        # serving: a restarted worker must reject the deposed
        # incarnation's stale-token requests from its very first frame.
        self.shard = boot_shard(
            live,
            decode_cells(obj.get("cells")),
            self.group_public_key,
            fence_token=int(obj.get("fence_token", 0)),
        )

    def handle(self, kind: str, payload: bytes) -> tuple[str, bytes]:
        if kind == "phase1":
            if self.delay_s > 0:
                time.sleep(self.delay_s)
            request = decode_phase1_request(payload, self.group_public_key)
            return "ok", encode_phase1_response(self.shard.process_phase1(request))
        if kind == "pu_update":
            # Frame layout: fence token prefix, then the raw message —
            # the token never contaminates the transcript bytes.
            fence_token, offset = decode_int(payload, 0)
            raw = payload[offset:]
            message = PUUpdateMessage.from_bytes(raw, self.group_public_key)
            self.shard.handle_pu_update(message, fence_token=fence_token)
            return "ok", encode_control({})
        if kind == "fence":
            obj, _ = decode_control(payload)
            self.shard.observe_fence(int(obj["token"]))
            return "ok", encode_control({})
        if kind == "chaos_delay":
            obj, _ = decode_control(payload)
            self.delay_s = float(obj["delay_s"])
            return "ok", encode_control({})
        if kind == "assign_blocks":
            obj, _ = decode_control(payload)
            self.shard.assign_blocks(tuple(int(b) for b in obj["blocks"]))
            return "ok", encode_control({})
        if kind == "detach_block":
            obj, _ = decode_control(payload)
            moved = self.shard.detach_block(int(obj["block"]))
            return "ok", encode_control({}, *(m.to_bytes() for m in moved))
        if kind == "commit_epoch":
            obj, _ = decode_control(payload)
            self.shard.commit_epoch(
                int(obj["epoch"]), fence_token=int(obj.get("fence_token", 0))
            )
            return "ok", encode_control({})
        raise TransportError(f"shard worker cannot serve frame kind {kind!r}")


class StpState:
    """An STP worker: group keypair from bootstrap, nonces from the broker.

    Its batches run on a :class:`~repro.crypto.parallel.ThreadExecutor`
    with a thread per CPU this process may run on (serial on one): a
    request's opening batch is the deployment's longest stretch of work
    on one core, and both shards and the broker wait on it.  A shard's
    phase 1 overlaps the other shard's, which fills the cores already.
    """

    role = "stp"

    def __init__(self, payload: bytes, authority_peer: PeerClient) -> None:
        # The STP role's own imports: no map, no store.
        from repro.crypto.parallel import ThreadExecutor
        from repro.netd.remote import RemoteRandomSource
        from repro.pisa.stp_server import StpServer

        obj, attachments = decode_control(payload, num_attachments=None)
        su_ids = [str(s) for s in obj["sus"]]
        if len(attachments) != 1 + len(su_ids):
            raise SerializationError("stp bootstrap: one key per listed SU")
        private_key = decode_private_key(attachments[0])
        keypair = PaillierKeypair(
            public_key=private_key.public_key, private_key=private_key
        )
        self.executor = ThreadExecutor(len(os.sched_getaffinity(0)))
        self.stp = StpServer(
            group_keypair=keypair,
            rng=RemoteRandomSource(authority_peer),
            executor=self.executor,
            indicator_bound=int(obj["indicator_bound"]),
        )
        for su_id, raw in zip(su_ids, attachments[1:]):
            self.stp.register_su(su_id, decode_public_key(raw))

    def handle(self, kind: str, payload: bytes) -> tuple[str, bytes]:
        if kind == "sign_req":
            request = SignExtractionRequest.from_bytes(
                payload, self.stp.group_public_key
            )
            return "ok", self.stp.handle_sign_extraction(request).to_bytes()
        if kind == "register_su":
            obj, attachments = decode_control(payload, num_attachments=1)
            self.stp.register_su(str(obj["su_id"]), decode_public_key(attachments[0]))
            return "ok", encode_control({})
        raise TransportError(f"stp worker cannot serve frame kind {kind!r}")

    @property
    def executor_threads(self) -> int:
        return self.executor.threads

    def ping_counts(self) -> dict:
        """Stock hit/miss and fill counts for the ``ping`` reply — no values."""
        stats = self.stp.stats
        return {
            "obfuscators_stocked": stats.obfuscators_stocked,
            "obfuscators_inline": stats.obfuscators_inline,
            **self.stp.stock_counts(),
        }


def _write_ready(path: str, data: dict) -> None:
    """Atomic write: the supervisor must never read a torn file."""
    target = pathlib.Path(path)
    tmp = target.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    os.replace(tmp, target)


def _serve(args, tls: TlsSpec | None) -> int:
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())

    # Orphan guard: if the supervising broker dies without a graceful
    # stop_all (SIGKILL, OOM), this process is reparented — exit rather
    # than serve a deployment that no longer exists.  The supervisor
    # ships its pid in the environment because our own ppid is already
    # the *reparented* one if the broker died while this interpreter was
    # still starting up; bare getppid() is the manual-launch fallback.
    parent_pid = int(os.environ.get("REPRO_NETD_PARENT_PID") or os.getppid())

    def stopping(wait_s: float) -> bool:
        """Wait up to ``wait_s`` for a stop; an orphan stops itself."""
        if not stop.wait(wait_s) and os.getppid() != parent_pid:
            stop.set()
        return stop.is_set()

    authority_host, authority_port = args.authority.rsplit(":", 1)
    authority_port = int(authority_port)
    # The bootstrap poll's link, and afterwards the STP's to its nonces.
    authority = PeerClient(
        "authority",
        lambda: (authority_host, authority_port),
        ssl_context=tls.client_context() if tls is not None else None,
    )
    # The pull watches for a stop too: a worker whose broker died
    # mid-spawn must not sit in the poll loop until the 60 s timeout.
    payload = _pull_bootstrap(authority, args.name, stopping)
    if payload is None or args.role == "shard":
        authority.close()  # only the STP comes back for more
    if payload is None:
        return 0

    if args.role == "shard":
        state = ShardState(payload)
    else:
        state = StpState(payload, authority)

    ping_info = {
        "name": args.name,
        "role": state.role,
        "crypto_backend": backend.describe(),
        "executor_threads": state.executor_threads,
    }

    # Graceful-drain accounting: frames between their arrival and the
    # end of their reply, over all connection threads.
    in_flight = [0]
    in_flight_lock = threading.Lock()
    # The STP's idle-time fill has a thread of its own — it must never
    # sit between a connection and its next frame — woken after every
    # sign_req reply; each run returns at the next request or on ``stop``.
    reply_sent = threading.Event()

    def fill_when_idle() -> None:
        while True:
            reply_sent.wait()
            reply_sent.clear()
            if stop.is_set():
                return
            state.stp.fill_stock(stop.is_set)

    def respond(frame) -> tuple[str, bytes]:
        if frame.kind == "hello":
            return "hello", encode_control({"name": args.name})
        if frame.kind == "ping":
            info = ping_info
            if args.role == "stp":
                info = {**ping_info, **state.ping_counts()}
            return "ok", encode_control(info)
        if frame.kind == "shutdown":
            stop.set()
            return "ok", encode_control({})
        try:
            return state.handle(frame.kind, frame.payload)
        except Exception as exc:  # ship, don't kill the worker
            return "err", encode_error(exc)

    def serve_conn(conn: FrameStream) -> None:
        # Drain discipline: the frame in flight is answered; once
        # stopping, no new work is taken from this connection.
        while not stop.is_set():
            frame = conn.recv()
            with in_flight_lock:
                in_flight[0] += 1
            try:
                kind, payload = respond(frame)
                conn.send(kind, frame.seq, payload)
            finally:
                with in_flight_lock:
                    in_flight[0] -= 1
            if frame.kind == "sign_req":
                # The reply is out and the broker is busy with the SU's
                # side of the next round: precompute h_n^s for the nonces
                # just stocked until the next sign_req arrives.
                reply_sent.set()

    server = FrameServer(
        args.name,
        args.host,
        args.port,
        serve_conn,
        ssl_context=tls.server_context() if tls is not None else None,
    )
    filler = None
    if args.role == "stp":
        filler = threading.Thread(target=fill_when_idle, name="netd-fill", daemon=True)
        filler.start()
    _write_ready(
        args.ready_file,
        {"name": args.name, "port": server.address[1], "pid": os.getpid()},
    )

    while not stopping(0.5):  # the orphan watchdog's tick
        pass
    server.stop_accepting()
    # Graceful drain (SIGTERM path): finish the frames the connection
    # threads are already serving, then revoke the readiness file.
    drain_deadline = time.monotonic() + 5.0
    while in_flight[0] > 0 and time.monotonic() < drain_deadline:
        time.sleep(0.01)  # audit-ok: RES001 — shutdown drain tick
    server.close()
    if filler is not None:
        # A fill sees ``stop`` within one chunk; its stock dies with the process.
        reply_sent.set()
        filler.join()
        state.executor.close()
        authority.close()
    if args.ready_file:
        pathlib.Path(args.ready_file).unlink(missing_ok=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.netd.worker")
    parser.add_argument("--role", required=True, choices=("shard", "stp"))
    parser.add_argument("--name", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--ready-file", default="")
    parser.add_argument("--authority", default="", help="authority host:port")
    parser.add_argument("--tls-cert", default="")
    parser.add_argument("--tls-key", default="")
    parser.add_argument("--tls-ca", default="")
    args = parser.parse_args(argv)

    try:
        if not args.authority:
            raise TransportError("shard/stp workers need --authority host:port")
        tls = None
        if args.tls_cert:
            tls = TlsSpec(
                certfile=args.tls_cert,
                keyfile=args.tls_key,
                cafile=args.tls_ca or None,
            )
        return _serve(args, tls)
    except ReproError as exc:
        print(f"{args.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
