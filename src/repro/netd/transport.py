"""The socket plane's connections: peer clients, the frame server, the transport.

One I/O model: blocking ``socket`` / ``ssl`` objects used by the thread
that wants the answer.  Every caller of the plane is blocking code — the
batch allocator, the router's scatter threads, the STP worker's nonce
draw — so :meth:`PeerClient.transact` takes an idle connection (or
dials one), sends a frame and reads the reply in the calling thread,
and :class:`FrameServer` gives each accepted connection a thread of its
own.  Backpressure is per peer (a bounded number of exchanges in
flight), so a slow shard cannot starve its siblings' links.

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

import errno
import itertools
import pathlib
import socket
import ssl
import sys
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
from repro.netd.framing import Frame, FrameStream
from repro.netd.wire import encode_control, raise_remote_error

__all__ = [
    "FrameServer",
    "PeerClient",
    "SocketTransport",
    "TlsSpec",
    "classify_network_error",
]

#: TCP connect, TLS handshake and the hello exchange, each.
CONNECT_TIMEOUT_S = 5.0
#: Sending one frame, and reading its reply, each.
REQUEST_TIMEOUT_S = 120.0
#: How long a dial waits for a (re)starting worker to report an address.
RESOLVE_TIMEOUT_S = 30.0
POOL_SIZE = 2
MAX_IN_FLIGHT = 8
_RESOLVE_POLL_S = 0.02
#: Teardown never waits longer than this for one thread.
_JOIN_TIMEOUT_S = 5.0


def classify_network_error(exc: BaseException, peer: str = "peer") -> TransportError:
    """Map an OS/socket failure onto the socket plane's typed taxonomy.

    * refused / reset / broken pipe / timed out / peer closed mid-frame
      → :class:`~repro.errors.LinkDownError` — retryable, triggers the
      same promote-and-retry path as an injected link cut;
    * ``EADDRINUSE`` → :class:`~repro.errors.PortInUseError` — not
      retryable against the same address.

    A corrupt frame is not a network error: callers let
    :class:`~repro.errors.IntegrityError` through as it is (the stream
    is untrustworthy, not the peer dead) and drop the connection.
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
            socket.timeout,
            EOFError,
        ),
    ):
        return LinkDownError(f"link to {peer} is down: {type(exc).__name__}: {exc}")
    if isinstance(exc, (ConnectionError, OSError)):
        return LinkDownError(f"link to {peer} failed: {type(exc).__name__}: {exc}")
    return TransportError(f"{peer}: {type(exc).__name__}: {exc}")


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
    (bounded by :data:`CONNECT_TIMEOUT_S` →
    :class:`~repro.errors.HandshakeTimeoutError`), kept idle on a stack
    of at most :data:`POOL_SIZE`, and discarded on any fault.  A
    semaphore bounds the exchanges in flight at :data:`MAX_IN_FLIGHT`.
    Any thread may call :meth:`transact`; it blocks that thread only.
    """

    def __init__(
        self,
        name: str,
        address_provider,
        ssl_context: ssl.SSLContext | None = None,
        metrics=None,
    ) -> None:
        self.name = name
        self._address_provider = address_provider
        self._ssl = ssl_context
        self._metrics = metrics
        self._seq = itertools.count()
        self._in_flight = threading.BoundedSemaphore(MAX_IN_FLIGHT)
        #: Guards the idle stack, ``_closed`` and this peer's counters.
        self._lock = threading.Lock()
        self._idle: list[FrameStream] = []
        self._closed = False

    def _count(self, frames: int, payload_bytes: int, dials: int = 0) -> None:
        if self._metrics is None:
            return
        with self._lock:
            self._metrics.counter("netd_frames_total", peer=self.name).inc(frames)
            self._metrics.counter("netd_bytes_total", peer=self.name).inc(payload_bytes)
            if dials:
                self._metrics.counter("netd_dials_total", peer=self.name).inc(dials)

    def _resolve_address(self) -> tuple[str, int]:
        """Consult the provider, waiting out worker (re)starts."""
        deadline = time.monotonic() + RESOLVE_TIMEOUT_S
        while True:
            try:
                return self._address_provider()
            except TransportError as exc:
                if time.monotonic() > deadline:
                    raise LinkDownError(
                        f"no address for {self.name}: {exc}"
                    ) from exc
                time.sleep(_RESOLVE_POLL_S)  # audit-ok: RES001 — readiness poll

    def _dial(self) -> FrameStream:
        host, port = self._resolve_address()
        try:
            sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
        except OSError as exc:
            raise classify_network_error(exc, self.name) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._ssl is not None:
                sock = self._ssl.wrap_socket(sock)
            conn = FrameStream(sock)
            sent = conn.send(
                "hello", next(self._seq), encode_control({}), CONNECT_TIMEOUT_S
            )
            hello = conn.recv(CONNECT_TIMEOUT_S)
            if hello.kind != "hello":
                raise TransportError(
                    f"{self.name} answered the hello with {hello.kind!r}"
                )
        except BaseException as exc:
            sock.close()
            if isinstance(exc, socket.timeout):
                raise HandshakeTimeoutError(
                    f"{self.name} at {host}:{port} accepted but never said hello"
                ) from exc
            if isinstance(exc, (OSError, EOFError)):
                raise classify_network_error(exc, self.name) from exc
            raise
        self._count(2, sent, dials=1)
        return conn

    def _checkout(self) -> FrameStream:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._dial()

    def _checkin(self, conn: FrameStream) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()

    def transact(
        self, kind: str, payload: bytes, timeout: float | None = None
    ) -> Frame:
        """Send one frame, wait for the paired response; typed errors.

        ``timeout`` (default :data:`REQUEST_TIMEOUT_S`) bounds the send
        and the wait for the reply; a peer that misses it is a
        :class:`~repro.errors.LinkDownError` like any other dead link,
        and the half-used connection is dropped, never pooled.
        """
        limit = REQUEST_TIMEOUT_S if timeout is None else timeout
        with self._in_flight:
            conn = self._checkout()
            seq = next(self._seq)
            try:
                sent = conn.send(kind, seq, payload, limit)
                response = conn.recv(limit)
            except BaseException as exc:
                conn.close()
                if isinstance(exc, (OSError, EOFError)):
                    raise classify_network_error(exc, self.name) from exc
                raise
            self._count(2, sent + len(response.payload))
            if response.seq != seq:
                conn.close()
                raise TransportError(
                    f"{self.name} answered seq {response.seq}, expected {seq}"
                )
            self._checkin(conn)
        if response.kind == "err":
            raise_remote_error(response.payload, self.name)
        return response

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class FrameServer:
    """A listening socket, an accept thread, and a thread per connection.

    ``serve(stream)`` is one connection's whole life, run in that
    connection's thread; it returns, or raises what
    :meth:`FrameStream.recv` raises, when the connection is over.  The
    threads are daemons named ``netd-<name>-*``; :meth:`close` leaves
    none behind.
    """

    def __init__(
        self, name: str, host: str, port: int, serve, ssl_context=None
    ) -> None:
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise classify_network_error(exc, name) from exc
        self.address = (host, self._listener.getsockname()[1])
        self._name = name
        self._serve = serve
        self._ssl = ssl_context
        self._accepting = True
        self._lock = threading.Lock()
        self._conns: dict[FrameStream, threading.Thread] = {}
        self._acceptor = threading.Thread(
            target=self._accept, name=f"netd-{name}-accept", daemon=True
        )
        self._acceptor.start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if not self._accepting:
                    return
                continue  # that one connection died in the backlog
            if not self._accepting:
                sock.close()
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._ssl is not None:
                    # Wrapped here, shaken in the connection's own thread:
                    # a slow client must not hold up the next accept.
                    sock = self._ssl.wrap_socket(
                        sock, server_side=True, do_handshake_on_connect=False
                    )
            except OSError:
                sock.close()
                continue
            stream = FrameStream(sock)
            thread = threading.Thread(
                target=self._run,
                args=(stream, sock),
                name=f"netd-{self._name}-conn",
                daemon=True,
            )
            with self._lock:
                self._conns[stream] = thread
            thread.start()

    def _run(self, stream: FrameStream, sock) -> None:
        try:
            if self._ssl is not None:
                sock.settimeout(CONNECT_TIMEOUT_S)
                sock.do_handshake()
            self._serve(stream)
        except (OSError, EOFError):
            pass  # the peer went away
        except IntegrityError as exc:
            # No trustworthy continuation: drop the connection, say why.
            print(f"{self._name}: dropped a connection: {exc}", file=sys.stderr)
        finally:
            stream.close()
            with self._lock:
                del self._conns[stream]

    def stop_accepting(self) -> None:
        """Close the listening socket; open connections carry on."""
        if not self._accepting:
            return
        self._accepting = False
        # close() does not wake a blocked accept() on Linux; a connection does.
        try:
            socket.create_connection(self.address, timeout=_JOIN_TIMEOUT_S).close()
        except OSError:
            pass
        self._acceptor.join(_JOIN_TIMEOUT_S)
        self._listener.close()

    def close(self) -> None:
        """Stop accepting, end every open connection, join its thread."""
        self.stop_accepting()
        with self._lock:
            conns = list(self._conns.items())
        for stream, _ in conns:
            stream.shutdown()
        for _, thread in conns:
            thread.join(_JOIN_TIMEOUT_S)


class SocketTransport(TranscriptTransport):
    """The socket plane's transport: in-memory accounting + real wire I/O.

    ``send()`` is inherited unchanged — pure accounting, link faults,
    transcript capture — so every ``transport_*`` series and fault
    semantic matches the in-memory plane byte for byte.  Wire I/O is
    the separate :meth:`transact`, keyed by registered peer endpoint.
    """

    def __init__(self, record_transcript: bool = False) -> None:
        super().__init__(record_transcript=record_transcript)
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
