"""Canonical protocol-transcript capture, shared by every plane.

The chaos harness, the cross-plane equivalence tests, and the socket
plane all need the same notion of "the protocol transcript": the exact
bytes of every *protocol-level* message (SU/PU ↔ SDC ↔ STP), in send
order, excluding router↔shard sub-queries — failover legitimately
re-sends those, and the externally visible bytes are exactly the
non-shard links.  Defining the fingerprint and the link predicate once
here is what makes "byte-identical transcript" mean the same thing in
``repro chaos``, the socket-plane equivalence test, and the process
chaos plan.

Recording happens *post-send*, so transient faults are transparent: a
dropped message was never delivered (not recorded), a retried one is
recorded once — the logical delivered-exactly-once transcript.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256
from repro.net.transport import InMemoryTransport

__all__ = ["TranscriptTransport", "fingerprint_message", "is_protocol_link"]


def fingerprint_message(message, sender: str, receiver: str) -> str:
    """Stable digest of one protocol message's exact bytes on a link."""
    to_bytes = getattr(message, "to_bytes", None)
    if to_bytes is not None:
        body = to_bytes()
    else:  # pragma: no cover - every protocol message serialises
        body = repr(message).encode("utf-8")
    return sha256(
        type(message).__name__.encode("utf-8"),
        b"|" + sender.encode("utf-8"),
        b"|" + receiver.encode("utf-8") + b"|",
        body,
    ).hex()


def is_protocol_link(sender: str, receiver: str) -> bool:
    """True for externally visible links; router↔shard traffic is not."""
    for endpoint in (sender, receiver):
        if endpoint.startswith("shard-") or endpoint == "router":
            return False
    return True


class TranscriptTransport(InMemoryTransport):
    """An in-memory transport that also fingerprints the transcript.

    Subclassing (rather than wrapping) keeps
    ``resolve_transport``-based coordinator plumbing — link failure,
    fault injection — working unchanged.  ``record_transcript=False``
    turns capture off without changing the type (the socket plane's
    default, so the hot path skips the extra ``to_bytes``).
    """

    def __init__(self, record_transcript: bool = True) -> None:
        super().__init__()
        self.record_transcript = record_transcript
        self.fingerprints: list[str] = []
        self._marks: list[int] = []

    def send(self, message, sender: str, receiver: str):
        result = super().send(message, sender, receiver)
        if self.record_transcript and is_protocol_link(sender, receiver):
            self.fingerprints.append(fingerprint_message(message, sender, receiver))
        return result

    def mark(self) -> int:
        """Close a transcript segment (enrolment, round N, ...)."""
        self._marks.append(len(self.fingerprints))
        return len(self._marks) - 1

    def segments(self) -> tuple[tuple[str, ...], ...]:
        """Fingerprints sliced by :meth:`mark` boundaries."""
        out = []
        start = 0
        for end in self._marks:
            out.append(tuple(self.fingerprints[start:end]))
            start = end
        return tuple(out)
