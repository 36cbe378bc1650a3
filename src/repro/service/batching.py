"""Epoch batching: coalesce concurrent SU requests into one pass.

A fine-grained spectrum service sees bursts of SU requests.  Handling
each one as its own Figure 5 round pays the full SDC↔STP message
round-trip and a separate homomorphic dispatch per request.  The epoch
batcher instead collects requests for a short window (or until a size
cap) and runs the whole *epoch* as one allocation pass:

1. **phase 1** — the SDC blinds every request's indicator matrix
   (eq. (14)); each per-request cell batch already ships to the
   executor as one ``pow_many`` call;
2. **one conversion leg** — the per-request sign-extraction messages
   travel to the STP inside a single :class:`BatchSignExtractionRequest`
   envelope (one message each way per epoch instead of one per request);
3. **phase 2** — the SDC unblinds, perturbs, signs, and returns each
   license (eqs. (16)/(17)).

:class:`EpochBatcher` is *pure* window/size bookkeeping — time is a
parameter, nothing sleeps — so its semantics (empty epochs, max-batch
overflow, flush) are directly unit-testable.  The broker's dispatcher
thread owns the actual clock and drives it.

The per-request crypto transcript is byte-identical to the unbatched
protocol: batching changes message framing and scheduling, never
ciphertexts, so a license issued inside an epoch equals the license the
same request would get alone (fixed RNG seed).

A wired :class:`BatchAllocator` also carries the deployment's *idle
work* — with a conversion server in this process, its §VI-A obfuscator
fill — for the broker to run between epochs; the allocator itself never
runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Sequence, TypeVar

from repro.crypto.serialization import encode_bytes
from repro.errors import ProtocolError
from repro.telemetry import child

__all__ = [
    "Epoch",
    "EpochBatcher",
    "BatchSignExtractionRequest",
    "BatchSignExtractionResponse",
    "BatchAllocator",
    "SDC_ENDPOINT",
    "STP_ENDPOINT",
]

T = TypeVar("T")

#: Transport endpoint names of the SDC and of its conversion server (the
#: STP, or the two-server variant's backend) in every deployment.
SDC_ENDPOINT = "sdc"
STP_ENDPOINT = "stp"


@dataclass
class Epoch(Generic[T]):
    """One batching window's worth of admitted items."""

    epoch_id: int
    opened_at: float
    due_at: float
    items: list[T] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


class EpochBatcher(Generic[T]):
    """Pure coalescing logic: windows of at most ``max_batch`` items.

    The first ``add`` after an epoch closes opens the next epoch, due
    ``window_s`` later.  An epoch closes either when :meth:`pop_ready`
    observes ``now >= due_at`` or immediately when it fills to
    ``max_batch`` (``add`` then returns it).  Time never advances
    implicitly — callers pass ``now`` — so the batcher is deterministic
    under test clocks.
    """

    def __init__(self, window_s: float, max_batch: int) -> None:
        if window_s < 0:
            raise ProtocolError("window_s must be non-negative")
        if max_batch < 1:
            raise ProtocolError("max_batch must be positive")
        self.window_s = window_s
        self.max_batch = max_batch
        self._open: Epoch[T] | None = None
        self._next_id = 0

    @property
    def pending(self) -> int:
        """Items waiting in the currently open epoch (0 when none open)."""
        return len(self._open) if self._open is not None else 0

    def next_due_at(self) -> float | None:
        """Deadline of the open epoch, or ``None`` when idle."""
        return self._open.due_at if self._open is not None else None

    def add(self, item: T, now: float) -> Epoch[T] | None:
        """Admit one item; returns the epoch if this filled it to the cap."""
        if self._open is None:
            self._open = Epoch(
                epoch_id=self._next_id, opened_at=now, due_at=now + self.window_s
            )
            self._next_id += 1
        self._open.items.append(item)
        if len(self._open) >= self.max_batch:
            return self._close()
        return None

    def pop_ready(self, now: float) -> Epoch[T] | None:
        """Close and return the open epoch if its window has elapsed."""
        if self._open is not None and now >= self._open.due_at:
            return self._close()
        return None

    def flush(self) -> Epoch[T] | None:
        """Close and return the open epoch regardless of its deadline."""
        return self._close() if self._open is not None else None

    def _close(self) -> Epoch[T]:
        epoch, self._open = self._open, None
        assert epoch is not None
        return epoch


# -- epoch wire envelopes -----------------------------------------------------------


def _encode_envelope(round_id: str, items: Sequence) -> bytes:
    parts = [encode_bytes(round_id.encode("utf-8"))]
    parts.extend(encode_bytes(item.to_bytes()) for item in items)
    return b"".join(parts)


@dataclass(frozen=True)
class BatchSignExtractionRequest:
    """SDC → STP: every epoch member's sign-extraction request, framed once.

    Works for both the baseline and packed per-request messages — the
    envelope only requires ``to_bytes()`` of its members.
    """

    epoch_id: int
    requests: tuple

    def to_bytes(self) -> bytes:
        return _encode_envelope(f"epoch-{self.epoch_id}", self.requests)

    def wire_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class BatchSignExtractionResponse:
    """STP → SDC: the matching per-request conversions, framed once."""

    epoch_id: int
    responses: tuple

    def to_bytes(self) -> bytes:
        return _encode_envelope(f"epoch-{self.epoch_id}", self.responses)

    def wire_size(self) -> int:
        return len(self.to_bytes())


# -- running an epoch through a coordinator -----------------------------------------


@dataclass(frozen=True)
class AllocationResult:
    """One request's outcome from a batched allocation pass."""

    su_id: str
    granted: bool
    outcome: object
    batch_size: int


class BatchAllocator:
    """Runs a closed epoch through the three protocol phases.

    The one driver of Figure 5's round: the broker, the spine,
    :meth:`repro.pisa.protocol.PisaCoordinator.run_request_round` (a
    one-request epoch) and the chaos harness all send a round's messages
    and call its phases through :meth:`allocate`.  Variant-agnostic: the
    three phases are injected as callables taking the message and a
    ``span=`` keyword, so the same allocator drives baseline PISA, the
    packed extension, and the two-server split.  Use
    :meth:`for_coordinator` to wire one from any coordinator: every
    variant's SDC answers ``start_request`` / ``finish_request`` and its
    conversion server ``handle_sign_extraction``.

    ``transport`` accounts every message of a pass: anything with the
    :class:`~repro.net.transport.InMemoryTransport` ``send``.
    """

    def __init__(
        self,
        phase1: Callable,
        convert: Callable,
        phase2: Callable,
        process_response: Callable,
        transport,
        commit_epoch: Callable | None = None,
        idle_work: Callable | None = None,
        discard_round: Callable | None = None,
    ) -> None:
        self._phase1 = phase1
        self._convert = convert
        self._phase2 = phase2
        self._process_response = process_response
        self._transport = transport
        self._commit_epoch = commit_epoch
        #: ``discard_round(round_id)``: forget a round phase 1 opened and
        #: phase 2 never finished.  Called for every round of a failed
        #: pass, so the rounds' secret blinding does not outlive it.
        self._discard_round = discard_round
        #: ``idle_work(stop)``: request-independent work of the wired
        #: deployment that whoever drives the allocator may run while no
        #: pass is — never during :meth:`allocate` — and that returns
        #: soon after ``stop()`` turns true.  ``None`` when there is none.
        self.idle_work = idle_work

    @classmethod
    def for_coordinator(cls, coordinator, transport=None) -> "BatchAllocator":
        """Build the phase wiring from any coordinator — one wiring.

        Messages go through ``transport``, the coordinator's own unless
        another is given (the chaos harness passes one that retries).

        A cluster coordinator's SDC facade exposes ``commit_epoch``; when
        present it is wired as the end-of-epoch hook, so each completed
        epoch advances every shard's committed-epoch watermark and writes
        its per-shard snapshot — the recovery point a promoted replica
        resumes from.  The cluster facade also splits each request's
        homomorphic work per shard internally, so one allocation pass is
        automatically batched shard-by-shard.

        A conversion server in this process exposes ``fill_stock`` (the
        ``h_n^s`` of re-encryption nonces it has already drawn, §VI-A);
        it becomes the allocator's idle work, which the broker runs
        between epochs.  The socket plane's STP proxy has none: the STP
        worker triggers its own fill, and nothing is filled twice.

        The SDC front's ``discard_round`` drops the rounds of a pass
        that fails after phase 1 (a retried epoch draws them afresh).
        """
        return cls(
            phase1=coordinator.sdc.start_request,
            convert=coordinator.stp.handle_sign_extraction,
            phase2=coordinator.sdc.finish_request,
            process_response=lambda su_id, response: coordinator.su_client(
                su_id
            ).process_response(response, coordinator.stp.directory),
            transport=transport if transport is not None else coordinator.transport,
            commit_epoch=getattr(coordinator.sdc, "commit_epoch", None),
            idle_work=getattr(coordinator.stp, "fill_stock", None),
            discard_round=coordinator.sdc.discard_round,
        )

    @staticmethod
    def _run_phase(fn, message, parent, name):
        """One phase call under a child span of ``parent``."""
        phase_span = child(parent, name)
        try:
            return fn(message, span=phase_span)
        except BaseException as exc:
            if phase_span is not None:
                phase_span.record_error(exc)
            raise
        finally:
            if phase_span is not None:
                phase_span.end()

    def allocate(self, epoch: Epoch, spans: Sequence | None = None) -> list[AllocationResult]:
        """One allocation pass over ``(su_id, request_message)`` items.

        Phase 1 runs per request (each already a single executor batch),
        the conversion leg crosses the wire once as a batch envelope, and
        phase 2 issues every license.  Order of results matches order of
        admission.

        ``spans`` is an optional per-item parallel sequence of
        :class:`repro.telemetry.Span` parents (the broker's per-request
        root spans); each item's ``phase1`` / ``stp`` / ``phase2`` /
        ``license`` children hang off its own parent, and each phase
        receives its child as ``span=``, so per-shard scatter spans nest
        beneath it.
        """
        if not epoch.items:
            return []
        if spans is None or len(spans) != len(epoch.items):
            spans = [None] * len(epoch.items)
        send = self._transport.send
        extractions = []
        try:
            for (su_id, request), span in zip(epoch.items, spans):
                send(request, sender=su_id, receiver=SDC_ENDPOINT)
                extractions.append(self._run_phase(self._phase1, request, span, "phase1"))
            send(
                BatchSignExtractionRequest(
                    epoch_id=epoch.epoch_id, requests=tuple(extractions)
                ),
                sender=SDC_ENDPOINT,
                receiver=STP_ENDPOINT,
            )
            conversions = tuple(
                self._run_phase(self._convert, extraction, span, "stp")
                for extraction, span in zip(extractions, spans)
            )
            send(
                BatchSignExtractionResponse(
                    epoch_id=epoch.epoch_id, responses=conversions
                ),
                sender=STP_ENDPOINT,
                receiver=SDC_ENDPOINT,
            )
            results = []
            for (su_id, _), conversion, span in zip(
                epoch.items, conversions, spans
            ):
                response = self._run_phase(self._phase2, conversion, span, "phase2")
                send(response, sender=SDC_ENDPOINT, receiver=su_id)
                with_license = child(span, "license")
                try:
                    outcome = self._process_response(su_id, response)
                finally:
                    if with_license is not None:
                        with_license.end()
                results.append(
                    AllocationResult(
                        su_id=su_id,
                        granted=outcome.granted,
                        outcome=outcome,
                        batch_size=len(epoch.items),
                    )
                )
        except BaseException:
            # Each opened round holds its cells' (α, β, ε) until phase 2
            # finishes it; a failed pass finishes none of the rest.
            if self._discard_round is not None:
                for extraction in extractions:
                    self._discard_round(extraction.round_id)
            raise
        if self._commit_epoch is not None:
            self._commit_epoch(epoch.epoch_id)
        return results
