"""Socket-plane worker process: ``python -m repro.netd.worker``.

One executable, two roles:

* ``shard`` — hosts one :class:`~repro.cluster.shard.SdcShard` and
  serves phase-1/phase-2 sub-queries plus state fan-out frames;
* ``stp`` — hosts an :class:`~repro.pisa.stp_server.StpServer` whose
  re-encryption nonces come from the broker's authority, one frame per
  request, via :class:`~repro.netd.remote.RemoteRandomSource`, keeping
  the deployment on one draw stream; between requests it spends its
  idle time on the ``r**n`` of the nonces already drawn for the next
  ones (:meth:`~repro.pisa.stp_server.StpServer.fill_stock`).

Startup is a *pull*: dial the authority, poll ``bootstrap`` until the
coordinator registers this worker's provider, apply the config, bind an
ephemeral port, atomically write the readiness file.  A crash restart
re-runs exactly the same pull — the provider serves current state — so
the supervisor never pushes anything.

The request loop reads frames on the process's asyncio loop and runs
handlers in a worker thread (``asyncio.to_thread``), so pings stay
responsive while a shard grinds through homomorphic arithmetic.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import sys
import time

from repro.cluster.shard import SdcShard
from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.serialization import (
    decode_bytes,
    decode_int,
    decode_private_key,
    decode_public_key,
)
from repro.errors import ReproError, SerializationError, TransportError
from repro.netd.framing import read_frame, write_frame
from repro.netd.remote import RemoteRandomSource
from repro.netd.transport import (
    LoopRunner,
    PeerClient,
    TlsSpec,
    classify_network_error,
)
from repro.netd.wire import (
    decode_control,
    decode_phase1_request,
    decode_phase2_request,
    encode_control,
    encode_error,
    encode_phase1_response,
    encode_phase2_response,
    raise_remote_error,
)
from repro.pisa.messages import PUUpdateMessage, SignExtractionRequest
from repro.pisa.storage import decode_shard_state, serialize_shard_state
from repro.pisa.stp_server import StpServer
from repro.store import MemoryStateStore, SqliteStateStore, StateStore, rebuild_shard
from repro.watch.scenario import ScenarioConfig, build_scenario

_BOOTSTRAP_POLL_S = 0.05
_BOOTSTRAP_TIMEOUT_S = 60.0


async def _pull_bootstrap(
    host: str, port: int, name: str, ssl_context=None
) -> bytes:
    """Poll the authority until our provider is registered."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _BOOTSTRAP_TIMEOUT_S
    seq = 0
    while True:
        if loop.time() > deadline:
            raise TransportError(f"worker {name!r}: bootstrap timed out")
        try:
            reader, writer = await asyncio.open_connection(host, port, ssl=ssl_context)
        except OSError:
            await asyncio.sleep(_BOOTSTRAP_POLL_S)  # audit-ok: RES001 — startup poll
            continue
        try:
            while True:
                await write_frame(
                    writer, "bootstrap", seq, encode_control({"name": name})
                )
                seq += 1
                frame = await read_frame(reader)
                if frame.kind == "ok":
                    return frame.payload
                if frame.kind == "err":
                    raise_remote_error(frame.payload, "authority")
                if loop.time() > deadline:
                    raise TransportError(f"worker {name!r}: bootstrap timed out")
                await asyncio.sleep(_BOOTSTRAP_POLL_S)  # audit-ok: RES001 — startup poll
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await asyncio.sleep(_BOOTSTRAP_POLL_S)  # audit-ok: RES001 — startup poll
        finally:
            writer.close()


async def _race_stop(awaitable, stop: asyncio.Event):
    """Run *awaitable* unless *stop* fires first; ``None`` means stopped."""
    task = asyncio.ensure_future(awaitable)
    stopper = asyncio.ensure_future(stop.wait())
    done, _ = await asyncio.wait({task, stopper}, return_when=asyncio.FIRST_COMPLETED)
    if task in done:
        stopper.cancel()
        return task.result()
    task.cancel()
    return None


class ShardState:
    """A shard worker's handler table over its local :class:`SdcShard`."""

    role = "shard"

    def __init__(self, payload: bytes, store: StateStore | None = None) -> None:
        obj, (key_raw, live) = decode_control(payload, num_attachments=2)
        self.group_public_key = decode_public_key(key_raw)
        #: ``--store``'s SQLite file, or memory when the worker has none.
        self.store = store if store is not None else MemoryStateStore()
        #: Chaos seam: artificial per-sub-query service delay (seconds),
        #: armed by a ``chaos_delay`` frame for gray-failure drills.
        self.delay_s = 0.0
        scenario = build_scenario(ScenarioConfig(**obj["scenario"]))
        self.shard = SdcShard(
            decode_shard_state(live)[0], scenario.environment, self.group_public_key
        )
        # The one rebuild rule: the durable snapshot (if the store
        # survived the crash) as a head start, then every update the
        # broker's bootstrap blob holds — ⊕ commutes and state is
        # latest-per-PU, so this reproduces the pre-crash aggregate.
        rebuild_shard(self.shard, live, self.store)
        # Learn the current lease *before* serving: a restarted worker
        # must reject the deposed incarnation's stale-token requests from
        # its very first frame.
        self.shard.observe_fence(int(obj.get("fence_token", 0)))

    def handle(self, kind: str, payload: bytes) -> tuple[str, bytes]:
        if kind == "phase1":
            if self.delay_s > 0:
                time.sleep(self.delay_s)
            request = decode_phase1_request(payload, self.group_public_key)
            return "ok", encode_phase1_response(self.shard.process_phase1(request))
        if kind == "phase2":
            if self.delay_s > 0:
                time.sleep(self.delay_s)
            pk_raw, offset = decode_bytes(payload, 0)
            su_key = decode_public_key(pk_raw)
            request = decode_phase2_request(payload[offset:], su_key)
            return "ok", encode_phase2_response(self.shard.process_phase2(request))
        if kind == "pu_update":
            # Frame layout: fence token prefix, then the raw message —
            # the token never contaminates the transcript bytes.
            fence_token, offset = decode_int(payload, 0)
            raw = payload[offset:]
            message = PUUpdateMessage.from_bytes(raw, self.group_public_key)
            self.shard.handle_pu_update(message, fence_token=fence_token)
            self.store.put_pu_update(self.shard.shard_id, message.pu_id, raw)
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
        if kind == "commit_epoch":
            obj, _ = decode_control(payload)
            epoch = int(obj["epoch"])
            self.shard.commit_epoch(
                epoch, fence_token=int(obj.get("fence_token", 0))
            )
            self.store.put_snapshot(
                self.shard.shard_id, epoch, serialize_shard_state(self.shard)
            )
            return "ok", encode_control({})
        raise TransportError(f"shard worker cannot serve frame kind {kind!r}")


class StpState:
    """An STP worker: group keypair from bootstrap, nonces from the broker."""

    role = "stp"

    def __init__(self, payload: bytes, authority_peer: PeerClient) -> None:
        obj, attachments = decode_control(payload, num_attachments=None)
        su_ids = [str(s) for s in obj["sus"]]
        if len(attachments) != 1 + len(su_ids):
            raise SerializationError("stp bootstrap: one key per listed SU")
        private_key = decode_private_key(attachments[0])
        keypair = PaillierKeypair(
            public_key=private_key.public_key, private_key=private_key
        )
        self.stp = StpServer(
            group_keypair=keypair, rng=RemoteRandomSource(authority_peer)
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


async def _serve(args, tls: TlsSpec | None) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    # Orphan guard: if the supervising broker dies without a graceful
    # stop_all (SIGKILL, OOM), this process is reparented — exit rather
    # than serve a deployment that no longer exists.  The supervisor
    # ships its pid in the environment because our own ppid is already
    # the *reparented* one if the broker died while this interpreter was
    # still starting up; bare getppid() is the manual-launch fallback.
    parent_pid = int(os.environ.get("REPRO_NETD_PARENT_PID") or os.getppid())

    async def watch_parent() -> None:
        while not stop.is_set():
            if os.getppid() != parent_pid:
                stop.set()
                return
            await asyncio.sleep(0.5)  # audit-ok: RES001 — orphan watchdog tick

    # Started *before* the bootstrap pull: a worker whose broker died
    # mid-spawn must not sit in the poll loop until the 60 s timeout.
    watchdog = asyncio.ensure_future(watch_parent())

    authority_host, authority_port = args.authority.rsplit(":", 1)
    authority_port = int(authority_port)
    client_ssl = tls.client_context() if tls is not None else None
    payload = await _race_stop(
        _pull_bootstrap(
            authority_host, authority_port, args.name, ssl_context=client_ssl
        ),
        stop,
    )
    if payload is None:
        watchdog.cancel()
        return 0

    if args.role == "shard":
        # The store opens *before* the readiness file is written: a shard
        # that cannot reach its durable state must not advertise itself.
        state = ShardState(
            payload, store=SqliteStateStore(args.store) if args.store else None
        )
        authority_peer = None
    else:
        # The STP's nonce draws are blocking transacts posted back onto
        # this loop from handler threads; safe because handlers never
        # run on the loop thread (asyncio.to_thread below).
        authority_peer = PeerClient(
            "authority",
            lambda: (authority_host, authority_port),
            LoopRunner(loop),
            ssl_context=client_ssl,
        )
        state = StpState(payload, authority_peer)

    ping_info = {"name": args.name, "role": state.role, "crypto_backend": backend.describe()}

    # Graceful-drain accounting: frames currently inside ``state.handle``
    # on a worker thread.  Mutated only from the loop thread, so a plain
    # counter needs no lock.
    inflight = [0]
    # The STP's idle-time fills (threads that return at the next request
    # or on ``stop``); held so shutdown can wait for them.
    fills: set[asyncio.Future] = set()

    async def serve_conn(reader, writer) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame.kind == "hello":
                    await write_frame(
                        writer, "hello", frame.seq, encode_control({"name": args.name})
                    )
                    continue
                if frame.kind == "ping":
                    info = ping_info
                    if args.role == "stp":
                        info = {**ping_info, **state.ping_counts()}
                    await write_frame(writer, "ok", frame.seq, encode_control(info))
                    continue
                if frame.kind == "shutdown":
                    await write_frame(writer, "ok", frame.seq, encode_control({}))
                    stop.set()
                    continue
                inflight[0] += 1
                try:
                    kind, payload = await asyncio.to_thread(
                        state.handle, frame.kind, frame.payload
                    )
                except ReproError as exc:
                    kind, payload = "err", encode_error(exc)
                except Exception as exc:  # ship, don't kill the worker
                    kind, payload = "err", encode_error(exc)
                finally:
                    inflight[0] -= 1
                await write_frame(writer, kind, frame.seq, payload)
                if frame.kind == "sign_req":
                    # The reply is out and the broker is busy with the
                    # SU's side of the next round: precompute r**n for
                    # the nonces just stocked, off-loop, until the next
                    # sign_req arrives.
                    fill = asyncio.ensure_future(
                        asyncio.to_thread(state.stp.fill_stock, stop.is_set)
                    )
                    fills.add(fill)
                    fill.add_done_callback(fills.discard)
                if stop.is_set():
                    # Drain discipline: the in-flight frame was answered;
                    # take no new work from this connection.
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            writer.close()

    server_ssl = tls.server_context() if tls is not None else None
    try:
        server = await asyncio.start_server(
            serve_conn, args.host, args.port, ssl=server_ssl
        )
    except Exception as exc:
        raise classify_network_error(exc, args.name) from exc
    port = server.sockets[0].getsockname()[1]
    # The ready-file write is sync file I/O (write_text + os.replace):
    # done inline it would stall the freshly started server's loop, so
    # it runs off-loop like every other blocking frame here (ASY001).
    await asyncio.to_thread(
        _write_ready,
        args.ready_file,
        {"name": args.name, "port": port, "pid": os.getpid()},
    )

    await stop.wait()
    watchdog.cancel()
    server.close()
    await server.wait_closed()
    # Graceful drain (SIGTERM path): finish the frame a handler thread is
    # already serving, flush durable state, and only then revoke the
    # readiness file — a supervisor that reads it mid-shutdown must never
    # see "ready" after the store has closed.
    drain_deadline = loop.time() + 5.0
    while inflight[0] > 0 and loop.time() < drain_deadline:
        await asyncio.sleep(0.01)  # audit-ok: RES001 — shutdown drain tick
    # A fill sees ``stop`` within one chunk; its stock dies with the process.
    await asyncio.gather(*fills, return_exceptions=True)
    if authority_peer is not None:
        # Off-loop: close() posts its drain onto this very loop and blocks
        # on the result, so calling it here would stall the loop until its
        # 5 s timeout — past the supervisor's SIGTERM grace.
        await asyncio.to_thread(authority_peer.close)
    if args.role == "shard":
        await asyncio.to_thread(state.store.close)
    if args.ready_file:
        await asyncio.to_thread(
            pathlib.Path(args.ready_file).unlink, missing_ok=True
        )
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
    parser.add_argument(
        "--store",
        default="",
        help="shard role: SQLite state-store path, opened before readiness",
    )
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
        return asyncio.run(_serve(args, tls))
    except ReproError as exc:
        print(f"{args.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
