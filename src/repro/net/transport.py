"""In-memory message transport with exact byte accounting.

Every protocol message passed through :class:`InMemoryTransport` is
counted under its class name with its serialised size (via the
message's ``wire_size()``).  Those per-kind totals are the §VI-A
communication-overhead numbers; they are running sums, so a transport
costs the same memory after a million sends as after one.

The same transport is the failure-injection point of the in-memory
planes: a directed link can be cut, and transient drop / duplicate /
delay faults can be armed on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.errors import LinkDownError, MessageDroppedError

__all__ = ["InMemoryTransport", "resolve_transport"]


class _SizedMessage(Protocol):
    def wire_size(self) -> int: ...


@dataclass
class _LinkFaults:
    """Remaining injected-fault budgets for one directed link."""

    #: Next N sends are dropped (raise ``MessageDroppedError``).
    drop: int = 0
    #: Next N sends are counted twice (wire-level duplicate).
    duplicate: int = 0
    #: Extra one-way delay carried by affected sends.
    delay_extra_s: float = 0.0
    #: How many sends the extra delay applies to; ``-1`` = all of them.
    delay_remaining: int = 0

    @property
    def exhausted(self) -> bool:
        return self.drop == 0 and self.duplicate == 0 and self.delay_remaining == 0


class InMemoryTransport:
    """Synchronous delivery with per-kind byte accounting and link faults.

    ``send`` returns the message unchanged (delivery is the caller
    invoking the receiver), so protocol code stays a plain call graph
    while the transport counts bytes on the side.

    Links are directed ``(sender, receiver)`` pairs.  Sending on a cut
    link (:meth:`fail_link`, :meth:`fail_endpoint`) raises
    :class:`~repro.errors.LinkDownError` *without* counting the message
    — the bytes never made it onto the wire, so they must not count
    toward the §VI-A totals.

    **Fault injection** (:meth:`inject_faults`) layers transient faults
    on top: drop the next N sends
    (:class:`~repro.errors.MessageDroppedError` — the link itself stays
    up, so the retry policy retries in place instead of failing over),
    count them twice on the wire, or delay them.  Delivery is the
    synchronous return value, so a duplicate lands in the byte counters,
    not the call graph, and a delay is reported by
    :meth:`pending_delay_seconds`, not slept.
    """

    def __init__(self) -> None:
        self._total_messages = 0
        self._total_bytes = 0
        #: kind → [count, bytes]
        self._by_kind: dict[str, list[int]] = {}
        #: Optional :class:`repro.telemetry.MetricsRegistry` exposing
        #: per-link transfer counters (see :meth:`attach_metrics`).
        self._metrics = None
        self._link_down: set[tuple[str, str]] = set()
        self._down_endpoints: set[str] = set()
        self._faults: dict[tuple[str, str], _LinkFaults] = {}
        #: Injected-fault counters: dropped / duplicated / delayed.
        self.fault_stats: dict[str, int] = {"dropped": 0, "duplicated": 0, "delayed": 0}

    def attach_metrics(self, metrics) -> None:
        """Mirror transfer accounting into a telemetry registry.

        Every counted message increments
        ``transport_records_total{link="sender->receiver"}`` and adds its
        size to ``transport_bytes_total{link=...}`` — duplicates twice,
        drops and cut-link sends not at all — so the per-link counters
        sum to :meth:`count` / :meth:`total_bytes` exactly.
        """
        self._metrics = metrics

    # -- sending -------------------------------------------------------------------

    def send(self, message: _SizedMessage, sender: str, receiver: str):
        """Account for one message and hand it back for delivery."""
        if not self.link_is_up(sender, receiver):
            raise LinkDownError(f"link {sender!r} -> {receiver!r} is down")
        link = (sender, receiver)
        copies = 1
        faults = self._faults.get(link)
        if faults is not None:
            if faults.drop > 0:
                faults.drop -= 1
                self.fault_stats["dropped"] += 1
                raise MessageDroppedError(
                    f"injected drop on link {sender!r} -> {receiver!r}"
                )
            if faults.delay_remaining != 0:
                if faults.delay_remaining > 0:
                    faults.delay_remaining -= 1
                self.fault_stats["delayed"] += 1
            if faults.duplicate > 0:
                faults.duplicate -= 1
                copies = 2
                self.fault_stats["duplicated"] += 1
            if faults.exhausted:
                del self._faults[link]
        size = message.wire_size() * copies
        self._total_messages += copies
        self._total_bytes += size
        kind_totals = self._by_kind.setdefault(type(message).__name__, [0, 0])
        kind_totals[0] += copies
        kind_totals[1] += size
        if self._metrics is not None:
            label = f"{sender}->{receiver}"
            self._metrics.counter("transport_records_total", link=label).inc(copies)
            self._metrics.counter("transport_bytes_total", link=label).inc(size)
        return message

    # -- accounting queries ------------------------------------------------------

    def total_bytes(self, kind: str | None = None) -> int:
        """Total bytes sent, optionally filtered by message class name."""
        if kind is None:
            return self._total_bytes
        return self._by_kind.get(kind, (0, 0))[1]

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return self._total_messages
        return self._by_kind.get(kind, (0, 0))[0]

    def by_kind(self) -> dict[str, tuple[int, int]]:
        """``{kind: (message_count, total_bytes)}`` summary."""
        return {kind: (count, size) for kind, (count, size) in self._by_kind.items()}

    # -- link administration -----------------------------------------------------

    def fail_link(self, sender: str, receiver: str) -> None:
        """Cut a directed link; subsequent sends raise ``LinkDownError``."""
        self._link_down.add((sender, receiver))

    def fail_endpoint(self, endpoint: str) -> None:
        """Cut every link to *and* from ``endpoint`` (a dead shard)."""
        self._down_endpoints.add(endpoint)

    def restore_link(self, sender: str, receiver: str) -> None:
        self._link_down.discard((sender, receiver))

    def restore_endpoint(self, endpoint: str) -> None:
        self._down_endpoints.discard(endpoint)

    def link_is_up(self, sender: str, receiver: str) -> bool:
        if (sender, receiver) in self._link_down:
            return False
        down = self._down_endpoints
        return sender not in down and receiver not in down

    # -- fault injection -----------------------------------------------------------

    def inject_faults(
        self,
        sender: str,
        receiver: str,
        *,
        drop: int = 0,
        duplicate: int = 0,
        delay_s: float = 0.0,
        delay_count: int = -1,
    ) -> None:
        """Arm transient faults on one directed link.

        ``drop``/``duplicate`` are budgets consumed one send at a time;
        ``delay_s`` is carried by the next ``delay_count`` sends (``-1``
        = every send).  Budgets are deterministic — the same arm + the
        same send sequence always yields the same fault schedule.
        """
        faults = self._faults.setdefault((sender, receiver), _LinkFaults())
        faults.drop += drop
        faults.duplicate += duplicate
        if delay_s > 0.0:
            faults.delay_extra_s = delay_s
            faults.delay_remaining = delay_count

    def pending_delay_seconds(self, sender: str, receiver: str) -> float:
        """The injected delay the next send on this link would carry.

        Read-only — budgets are not consumed.  The router folds this into
        its RTT observations: in-memory transports deliver synchronously,
        so an injected slowdown is invisible to wall-clock timing alone.
        """
        faults = self._faults.get((sender, receiver))
        if faults is None or faults.delay_remaining == 0:
            return 0.0
        return faults.delay_extra_s

    def clear_faults(self) -> None:
        """Disarm every injected fault (cut links stay cut)."""
        self._faults.clear()


def resolve_transport(transport) -> InMemoryTransport | None:
    """Unwrap decorator transports down to the :class:`InMemoryTransport`.

    Wrappers like :class:`repro.audit.runtime.SanitizingTransport` expose
    their wrapped transport as ``.inner``; coordinator code that needs
    link administration (failing a shard's wire, arming faults) must
    reach the transport itself rather than the outermost wrapper.
    Returns ``None`` when no transport is in the stack.
    """
    seen = 0
    while transport is not None and seen < 16:
        if isinstance(transport, InMemoryTransport):
            return transport
        transport = getattr(transport, "inner", None)
        seen += 1
    return None
