"""The broker side of the socket plane: peer clients and the transport.

Blocking protocol code (the batch allocator, the router's scatter
threads) talks to workers through :class:`PeerClient.transact`, which
posts a coroutine onto a dedicated background event loop
(:class:`NetLoop`) and blocks the *calling* thread only.  Each peer
keeps a small connection pool with a bounded in-flight semaphore —
backpressure is per peer, so a slow shard cannot starve its siblings'
links.

:class:`SocketTransport` extends the in-memory
:class:`~repro.net.recording.TranscriptTransport`: ``send()`` stays the
pure accounting/fault-injection funnel (so ``transport_*`` metrics,
§VI-A byte totals, and injected-fault semantics are identical across
planes), while the actual wire I/O goes through :meth:`transact` with
its own ``netd_*`` metric families.  Keeping the two separate is what
makes the cross-plane metric and transcript parity hold exactly.

:func:`classify_network_error` is the satellite-taxonomy seam: real OS
failures map onto the same typed errors the chaos plans inject, so the
router's retry/failover policy handles a SIGKILLed worker process
exactly like a cut in-memory wire.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import errno
import itertools
import pathlib
import ssl
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    HandshakeTimeoutError,
    IntegrityError,
    LinkDownError,
    PortInUseError,
    TransportError,
)
from repro.net.recording import TranscriptTransport
from repro.netd.framing import Frame, read_frame, write_frame
from repro.netd.wire import encode_control, raise_remote_error

__all__ = [
    "NetLoop",
    "LoopRunner",
    "PeerClient",
    "SocketTransport",
    "TlsSpec",
    "classify_network_error",
]

DEFAULT_CONNECT_TIMEOUT_S = 5.0
DEFAULT_REQUEST_TIMEOUT_S = 120.0
DEFAULT_RESOLVE_TIMEOUT_S = 30.0
DEFAULT_POOL_SIZE = 2
DEFAULT_MAX_IN_FLIGHT = 8
_RESOLVE_POLL_S = 0.02


def classify_network_error(exc: BaseException, peer: str = "peer") -> TransportError:
    """Map an OS/asyncio failure onto the socket plane's typed taxonomy.

    * refused / reset / broken pipe / peer closed mid-frame →
      :class:`~repro.errors.LinkDownError` — retryable, triggers the
      same promote-and-retry path as an injected link cut;
    * ``EADDRINUSE`` → :class:`~repro.errors.PortInUseError` — not
      retryable against the same address;
    * corrupt frame → :class:`~repro.errors.IntegrityError` passes
      through unchanged (the stream is untrustworthy, not the peer
      dead — the caller tears the connection down and re-dials).
    """
    if isinstance(exc, TransportError):
        return exc
    if isinstance(exc, OSError) and exc.errno == errno.EADDRINUSE:
        return PortInUseError(f"{peer}: address already in use: {exc}")
    if isinstance(
        exc,
        (
            ConnectionRefusedError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            EOFError,
        ),
    ):
        return LinkDownError(f"link to {peer} is down: {type(exc).__name__}: {exc}")
    if isinstance(exc, (ConnectionError, OSError)):
        return LinkDownError(f"link to {peer} failed: {type(exc).__name__}: {exc}")
    return TransportError(f"{peer}: {type(exc).__name__}: {exc}")


class LoopRunner:
    """Blocking facade over a running asyncio loop owned by someone else."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def run(self, coro, timeout: float | None = None):
        """Run ``coro`` on the loop; block the calling thread for the result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise


class NetLoop(LoopRunner):
    """A private event loop on a daemon thread for all netd I/O.

    The loadtest driver owns the process's foreground ``asyncio.run``
    loop; netd I/O must not share it (blocking protocol threads wait on
    netd futures, and waiting on your own loop deadlocks).  One NetLoop
    per deployment carries every peer connection and the authority
    server.
    """

    def __init__(self, name: str = "netd-loop") -> None:
        loop = asyncio.new_event_loop()
        super().__init__(loop)
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def close(self) -> None:
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
            self._loop.close()


@dataclass(frozen=True)
class TlsSpec:
    """Paths for mutually authenticated TLS between broker and workers."""

    certfile: str
    keyfile: str
    cafile: str | None = None

    def __post_init__(self) -> None:
        for label, path in (("certfile", self.certfile), ("keyfile", self.keyfile)):
            if not pathlib.Path(path).exists():
                raise ConfigurationError(f"tls {label} does not exist: {path}")
        if self.cafile is not None and not pathlib.Path(self.cafile).exists():
            raise ConfigurationError(f"tls cafile does not exist: {self.cafile}")

    def client_context(self) -> ssl.SSLContext:
        context = ssl.create_default_context(
            ssl.Purpose.SERVER_AUTH, cafile=self.cafile
        )
        context.load_cert_chain(self.certfile, self.keyfile)
        # Workers present the shared deployment certificate, not a
        # per-host one; identity is the CA, not the hostname.
        context.check_hostname = False
        return context

    def server_context(self) -> ssl.SSLContext:
        context = ssl.create_default_context(
            ssl.Purpose.CLIENT_AUTH, cafile=self.cafile
        )
        context.load_cert_chain(self.certfile, self.keyfile)
        if self.cafile is not None:
            context.verify_mode = ssl.CERT_REQUIRED
        return context


class PeerClient:
    """A pooled, backpressured request/response client for one worker.

    ``address_provider`` is re-consulted on every dial, so a worker that
    restarts on a fresh ephemeral port is reachable as soon as the
    supervisor has read its new readiness file — no explicit reconnect
    step.  Connections are validated with a hello handshake on dial
    (bounded by ``connect_timeout_s`` →
    :class:`~repro.errors.HandshakeTimeoutError`), recycled through a
    pool of ``pool_size``, and discarded on any fault.  A semaphore
    bounds in-flight requests at ``max_in_flight``.
    """

    def __init__(
        self,
        name: str,
        address_provider,
        runner: LoopRunner,
        pool_size: int = DEFAULT_POOL_SIZE,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        resolve_timeout_s: float = DEFAULT_RESOLVE_TIMEOUT_S,
        ssl_context: ssl.SSLContext | None = None,
        metrics=None,
    ) -> None:
        self.name = name
        self._address_provider = address_provider
        self._runner = runner
        self._pool_size = pool_size
        self._connect_timeout_s = connect_timeout_s
        self._request_timeout_s = request_timeout_s
        self._resolve_timeout_s = resolve_timeout_s
        self._ssl = ssl_context
        self._metrics = metrics
        self._seq = itertools.count()
        # Loop-confined state, created lazily on the runner's loop.
        self._pool: asyncio.LifoQueue | None = None
        self._sem: asyncio.Semaphore | None = None
        self._max_in_flight = max_in_flight
        self._closed = False

    def _count(self, family: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(family, peer=self.name).inc(amount)

    # -- addressing (calling-thread side) -----------------------------------------

    def _resolve_address(self) -> tuple[str, int]:
        """Consult the provider, waiting out worker (re)starts.

        Runs on the *calling* thread, never the event loop — the
        provider may poll supervisor readiness files, and the loop must
        stay free to serve the authority while a worker boots.
        """
        deadline = time.monotonic() + self._resolve_timeout_s
        while True:
            try:
                return self._address_provider()
            except TransportError as exc:
                if time.monotonic() > deadline:
                    raise LinkDownError(
                        f"no address for {self.name}: {exc}"
                    ) from exc
                time.sleep(_RESOLVE_POLL_S)  # audit-ok: RES001 — readiness poll

    # -- connection management (loop side) ---------------------------------------

    async def _dial(self, address: tuple[str, int]):
        host, port = address
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, ssl=self._ssl),
                timeout=self._connect_timeout_s,
            )
        except asyncio.TimeoutError as exc:
            raise LinkDownError(
                f"connect to {self.name} at {host}:{port} timed out"
            ) from exc
        except Exception as exc:
            raise classify_network_error(exc, self.name) from exc
        try:
            sent = await write_frame(writer, "hello", next(self._seq), encode_control({}))
            hello = await asyncio.wait_for(
                read_frame(reader), timeout=self._connect_timeout_s
            )
        except asyncio.TimeoutError as exc:
            writer.close()
            raise HandshakeTimeoutError(
                f"{self.name} at {host}:{port} accepted but never said hello"
            ) from exc
        except Exception as exc:
            writer.close()
            raise classify_network_error(exc, self.name) from exc
        if hello.kind != "hello":
            writer.close()
            raise TransportError(
                f"{self.name} answered the hello with {hello.kind!r}"
            )
        self._count("netd_frames_total", 2)
        self._count("netd_bytes_total", sent)
        self._count("netd_dials_total")
        return reader, writer

    async def _checkout(self, address: tuple[str, int]):
        assert self._pool is not None
        try:
            return self._pool.get_nowait()
        except asyncio.QueueEmpty:
            return await self._dial(address)

    def _checkin(self, conn) -> None:
        assert self._pool is not None
        if self._closed or self._pool.qsize() >= self._pool_size:
            conn[1].close()
            return
        self._pool.put_nowait(conn)

    async def _transact(
        self, address: tuple[str, int], kind: str, payload: bytes
    ) -> Frame:
        if self._pool is None:
            self._pool = asyncio.LifoQueue()
            self._sem = asyncio.Semaphore(self._max_in_flight)
        assert self._sem is not None
        async with self._sem:
            reader, writer = await self._checkout(address)
            seq = next(self._seq)
            try:
                sent = await write_frame(writer, kind, seq, payload)
                response = await asyncio.wait_for(
                    read_frame(reader), timeout=self._request_timeout_s
                )
            except asyncio.TimeoutError as exc:
                writer.close()
                raise LinkDownError(
                    f"{self.name} did not answer a {kind!r} frame in "
                    f"{self._request_timeout_s:.0f}s"
                ) from exc
            except IntegrityError:
                writer.close()
                raise
            except Exception as exc:
                writer.close()
                raise classify_network_error(exc, self.name) from exc
            self._count("netd_frames_total", 2)
            self._count("netd_bytes_total", sent + len(response.payload))
            if response.seq != seq:
                writer.close()
                raise TransportError(
                    f"{self.name} answered seq {response.seq}, expected {seq}"
                )
            self._checkin((reader, writer))
            if response.kind == "err":
                raise_remote_error(response.payload, self.name)
            return response

    # -- blocking facade (any thread) ---------------------------------------------

    def transact(
        self, kind: str, payload: bytes, timeout: float | None = None
    ) -> Frame:
        """Send one frame, wait for the paired response; typed errors."""
        address = self._resolve_address()
        return self._runner.run(
            self._transact(address, kind, payload),
            timeout=timeout if timeout is not None else self._request_timeout_s + 5.0,
        )

    def close(self) -> None:
        self._closed = True

        async def _drain() -> None:
            if self._pool is None:
                return
            while True:
                try:
                    _, writer = self._pool.get_nowait()
                except asyncio.QueueEmpty:
                    return
                writer.close()

        try:
            self._runner.run(_drain(), timeout=5.0)
        except Exception:  # pragma: no cover - teardown best effort
            pass


class SocketTransport(TranscriptTransport):
    """The socket plane's transport: in-memory accounting + real wire I/O.

    ``send()`` is inherited unchanged — pure accounting, link faults,
    transcript capture — so every ``transport_*`` series and fault
    semantic matches the in-memory plane byte for byte.  Wire I/O is
    the separate :meth:`transact`, keyed by registered peer endpoint.
    """

    def __init__(self, *args, record_transcript: bool = False, **kwargs) -> None:
        super().__init__(*args, record_transcript=record_transcript, **kwargs)
        self._peers: dict[str, PeerClient] = {}

    def register_peer(self, endpoint: str, peer: PeerClient) -> None:
        self._peers[endpoint] = peer

    def peer(self, endpoint: str) -> PeerClient:
        peer = self._peers.get(endpoint)
        if peer is None:
            raise TransportError(f"no registered peer for endpoint {endpoint!r}")
        return peer

    @property
    def peer_endpoints(self) -> tuple[str, ...]:
        return tuple(sorted(self._peers))

    def transact(
        self, endpoint: str, kind: str, payload: bytes, timeout: float | None = None
    ) -> Frame:
        """One request/response exchange with ``endpoint`` over TCP."""
        return self.peer(endpoint).transact(kind, payload, timeout=timeout)

    def close_peers(self) -> None:
        for peer in self._peers.values():
            peer.close()
