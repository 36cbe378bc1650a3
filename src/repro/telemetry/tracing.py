"""Span-based tracing with explicit context propagation.

A :class:`Span` covers one named phase of work — ``request``,
``admission``, ``batch``, ``phase1``, ``shard``, ``stp``, ``phase2``,
``license`` — and owns its children, forming a tree per root.  Context
is propagated *explicitly*: every instrumented call site receives its
parent span as an argument (``span=None`` disables tracing at zero
cost).  There are no globals and no thread-locals on the hot path, so
the scatter-gather thread pool in ``cluster.router`` cannot smear
context between shards, and an untraced run executes the exact same
protocol code.

Two properties matter more than anything else here:

* **Transcript neutrality** — span ids come from the tracer's *own*
  :class:`~repro.crypto.rand.DeterministicRandomSource` (or any injected
  :class:`~repro.crypto.rand.RandomSource`), never from the protocol
  rng, so enabling tracing cannot shift a single protocol draw.  Traced
  and untraced runs produce byte-identical transcripts (asserted in
  ``tests/resilience/test_chaos.py`` and the loadtest acceptance test).
* **Secret hygiene** — attribute keys are checked against the secret
  denylist at record time (raising
  :class:`~repro.errors.TelemetryError`), and the TEL001 audit rule
  flags violating call sites statically.

Span *trees* are compared structurally via :meth:`Span.signature`
(names + nesting + status, no ids/durations), which is the determinism
contract: same seed → same tree shape, even though wall-clock
durations differ run to run.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator

from repro.crypto.rand import DeterministicRandomSource, RandomSource
from repro.errors import TelemetryError

from .metrics import SECRET_LABEL_NAMES

__all__ = ["Span", "Tracer", "child"]

#: Values larger than this are almost certainly protocol integers
#: (ciphertexts, key material) rather than operational attributes;
#: recording one is refused outright.
_MAX_INT_ATTRIBUTE = 1 << 63


def _check_attributes(attributes: dict) -> None:
    for key, value in attributes.items():
        if key in SECRET_LABEL_NAMES:
            raise TelemetryError(
                f"span attribute {key!r} names secret material; "
                "telemetry must never record secrets"
            )
        if isinstance(value, int) and not isinstance(value, bool):
            if abs(value) >= _MAX_INT_ATTRIBUTE:
                raise TelemetryError(
                    f"span attribute {key!r} holds a {value.bit_length()}-bit "
                    "integer — protocol-sized values are refused as probable "
                    "ciphertext/key material"
                )


class Span:
    """One timed, named phase of work in a request's lifecycle.

    Spans are created through :class:`Tracer` (roots) or
    :meth:`Span.child`; end them with :meth:`end` or use them as context
    managers.  Attributes are small operational facts (su id, request
    id, shard index, batch size) — never protocol values.
    """

    __slots__ = (
        "tracer", "span_id", "parent_id", "name", "attributes",
        "children", "started_at", "ended_at", "status",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: str,
        parent_id: str | None,
        name: str,
        attributes: dict,
    ) -> None:
        _check_attributes(attributes)
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = dict(attributes)
        self.children: list[Span] = []
        self.started_at = tracer._clock()
        self.ended_at: float | None = None
        self.status = "ok"

    # -- lifecycle ---------------------------------------------------

    def child(self, name: str, **attributes) -> "Span":
        """Open a child span; the caller must ``end`` it (or ``with`` it)."""
        span = Span(
            self.tracer, self.tracer._next_id(), self.span_id, name, attributes
        )
        self.children.append(span)
        return span

    def set_attribute(self, key: str, value) -> None:
        _check_attributes({key: value})
        self.attributes[key] = value

    def record_error(self, exc: BaseException) -> None:
        """Mark the span failed; records the exception *type* only."""
        self.status = f"error:{type(exc).__name__}"

    def end(self) -> None:
        if self.ended_at is None:
            self.ended_at = self.tracer._clock()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.record_error(exc)
        self.end()

    # -- reading -----------------------------------------------------

    @property
    def duration_s(self) -> float:
        end = self.ended_at if self.ended_at is not None else self.tracer._clock()
        return end - self.started_at

    def find(self, name: str) -> Iterator["Span"]:
        """Depth-first iterator over descendants (and self) named ``name``."""
        if self.name == name:
            yield self
        for span_child in self.children:
            yield from span_child.find(name)

    def signature(self) -> tuple:
        """Structural identity: ``(name, status, (child signatures...))``.

        Excludes span ids, timestamps, durations, and attribute values,
        so two runs of the same seeded workload compare equal even
        though they ran at different speeds.
        """
        return (
            self.name,
            self.status,
            tuple(span_child.signature() for span_child in self.children),
        )

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "status": self.status,
            "attributes": dict(self.attributes),
            "duration_s": self.duration_s,
            "children": [span_child.to_dict() for span_child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Human-readable one-span-per-line tree."""
        attrs = " ".join(
            f"{k}={self.attributes[k]}" for k in sorted(self.attributes)
        )
        status = "" if self.status == "ok" else f" [{self.status}]"
        line = (
            f"{'  ' * indent}{self.name}  {self.duration_s * 1000.0:.2f} ms"
            f"{status}{('  ' + attrs) if attrs else ''}"
        )
        lines = [line]
        lines.extend(
            span_child.render(indent + 1) for span_child in self.children
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, children={len(self.children)})"


class Tracer:
    """Creates spans with deterministic ids and collects finished roots.

    ``rng`` defaults to a :class:`DeterministicRandomSource` seeded from
    a fixed label, so two tracers observing the same seeded workload
    assign identical span ids.  Id allocation takes a lock —
    ``DeterministicRandomSource`` is a stateful counter DRBG and the
    cluster router starts spans from pool threads — but the lock guards
    only the 64-bit draw, never protocol work.
    """

    #: Fixed seed for span-id generation.  The tracer must never draw
    #: from the protocol rng (that would perturb transcripts), so it
    #: owns an rng of its own; determinism across runs is the point, so
    #: the seed is a constant rather than entropy.
    DEFAULT_SEED = 0x7E1E_5EED

    def __init__(self, rng: RandomSource | None = None, clock=time.perf_counter) -> None:
        self._rng = rng if rng is not None else DeterministicRandomSource(self.DEFAULT_SEED)
        self._clock = clock
        self._id_lock = threading.Lock()
        self.roots: list[Span] = []

    def _next_id(self) -> str:
        with self._id_lock:
            return f"{self._rng.randbits(64):016x}"

    def start_span(self, name: str, **attributes) -> Span:
        """Open a root span; it is retained in :attr:`roots`."""
        span = Span(self, self._next_id(), None, name, attributes)
        self.roots.append(span)
        return span

    def signature(self) -> tuple:
        """Structural signature of the whole trace (all root trees)."""
        return tuple(root.signature() for root in self.roots)

    def render(self) -> str:
        return "\n".join(root.render() for root in self.roots)

    def find(self, name: str) -> Iterator[Span]:
        for root in self.roots:
            yield from root.find(name)

    def phase_latency(self) -> dict[str, dict[str, float]]:
        """Per-phase latency breakdown across every span in the trace.

        Returns ``{span_name: {count, total_s, mean_s, max_s}}`` —
        the table ``serve-loadtest --trace`` prints under the tree.
        """
        out: dict[str, dict[str, float]] = {}
        stack = list(self.roots)
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            entry = out.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0}
            )
            duration = span.duration_s
            entry["count"] += 1
            entry["total_s"] += duration
            if duration > entry["max_s"]:
                entry["max_s"] = duration
        for entry in out.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return out


def child(span: Span | None, name: str, **attributes) -> Span | None:
    """``span.child(...)`` that tolerates ``span=None`` (tracing off).

    The standard idiom at instrumented call sites::

        with nullcontext(child(span, "phase1", su=su_id)) as phase_span:
            ...

    or, when the callee threads the span onward::

        phase_span = child(span, "phase1")
        try:
            ...
        finally:
            if phase_span is not None:
                phase_span.end()
    """
    if span is None:
        return None
    return span.child(name, **attributes)
