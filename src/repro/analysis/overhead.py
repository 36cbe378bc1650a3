"""Communication-overhead summaries (§VI-A's reporting unit)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.net.transport import InMemoryTransport

__all__ = ["CommunicationSummary", "leg_bytes", "summarize_transport"]

#: The message kinds booked on each §VI-A leg.  A round's conversion
#: legs cross the wire inside the epoch envelopes
#: (:mod:`repro.service.batching`), one per direction per pass, whatever
#: the variant's sign-extraction messages inside them.
_LEG_KINDS = {
    "request_bytes": ("SURequestMessage", "PackedRequestMessage"),
    "pu_update_bytes": ("PUUpdateMessage",),
    "sign_extraction_bytes": ("BatchSignExtractionRequest",),
    "conversion_bytes": ("BatchSignExtractionResponse",),
    "response_bytes": ("LicenseResponse",),
}


@dataclass(frozen=True)
class CommunicationSummary:
    """Bytes on the wire per protocol message type."""

    request_bytes: int
    pu_update_bytes: int
    sign_extraction_bytes: int
    conversion_bytes: int
    response_bytes: int
    total_bytes: int
    message_count: int

    def as_rows(self) -> list[tuple[str, str]]:
        """Human-readable rows for the report tables."""

        def fmt(size: int) -> str:
            if size >= 1_000_000:
                return f"{size / 1e6:.2f} MB"
            if size >= 1_000:
                return f"{size / 1e3:.2f} kB"
            return f"{size} B"

        return [
            ("SU request (F̃ matrix)", fmt(self.request_bytes)),
            ("PU update (W̃ vector)", fmt(self.pu_update_bytes)),
            ("SDC→STP sign extraction (Ṽ)", fmt(self.sign_extraction_bytes)),
            ("STP→SDC key conversion (X̃)", fmt(self.conversion_bytes)),
            ("SDC response (license + G̃)", fmt(self.response_bytes)),
            ("Total", fmt(self.total_bytes)),
        ]


def leg_bytes(
    by_kind: Mapping[str, tuple[int, int]],
    since: Mapping[str, tuple[int, int]] | None = None,
) -> dict[str, int]:
    """Bytes per §VI-A leg of a transport's ``by_kind()`` table.

    With ``since`` (an earlier ``by_kind()`` of the same transport) only
    what was sent after it counts.
    """
    since = since or {}

    def sent(kind: str) -> int:
        return by_kind.get(kind, (0, 0))[1] - since.get(kind, (0, 0))[1]

    return {
        leg: sum(sent(kind) for kind in kinds) for leg, kinds in _LEG_KINDS.items()
    }


def summarize_transport(transport: InMemoryTransport) -> CommunicationSummary:
    """Aggregate an accounted transport into a per-leg summary."""
    return CommunicationSummary(
        **leg_bytes(transport.by_kind()),
        total_bytes=transport.total_bytes(),
        message_count=transport.count(),
    )
