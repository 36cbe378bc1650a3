"""The real socket plane: PISA components as separate OS processes.

``repro.netd`` turns the in-process deployment into an actually
distributed one.  The broker (coordinator + all protocol randomness)
stays in the launching process; SDC shards and the STP run as worker
subprocesses reached over TCP — blocking sockets, a thread per
connection — with CRC-checked, length-prefixed frames carrying the
existing ``pisa.messages`` wire encodings.

The hard invariant is determinism: a socket-plane run produces
byte-identical protocol transcripts (and an identical span-tree
signature) to the same seeded run over
:class:`~repro.net.transport.InMemoryTransport`.  The layering that
guarantees it:

* every protocol draw happens in the broker process — the shards'
  arithmetic is deterministic, and the STP worker's re-encryption
  nonces round-trip to the broker's RNG authority
  (:class:`~repro.netd.remote.RemoteRandomSource`), so a journaled
  RandomSource journals the *whole* deployment, worker draws included;
* byte codecs (:mod:`repro.netd.wire`) reuse the canonical
  ``to_bytes``/``from_bytes`` encodings, so what crosses the wire is
  exactly what the in-memory accounting already measured;
* the supervisor restarts a crashed worker and the worker re-pulls its
  full bootstrap state from the authority, so a retried sub-query sees
  the same state and re-sends the same bytes.

The package re-exports only framing and transport, which every
worker loads anyway: the broker-side modules (:mod:`repro.netd.plane`,
:mod:`repro.netd.supervisor`) are imported from where they are defined,
so ``python -m repro.netd.worker`` starts without the broker's stack.

See ``docs/networking.md`` for the frame format, process topology, and
TLS setup.
"""

from repro.netd.framing import (
    Frame,
    FrameDecoder,
    FrameStream,
    decode_frame,
    encode_frame,
)
from repro.netd.transport import (
    FrameServer,
    PeerClient,
    SocketTransport,
    TlsSpec,
    classify_network_error,
)

__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameServer",
    "FrameStream",
    "PeerClient",
    "SocketTransport",
    "TlsSpec",
    "classify_network_error",
    "decode_frame",
    "encode_frame",
]
