"""Unified metrics: counters, gauges, histograms, and exposition.

This module is the one metrics plane for the whole stack — the service
broker, the cluster router, the retry/circuit-breaker policy engine,
the transports, and the chaos harness all report through one
:class:`MetricsRegistry`.  The design goals are the usual ones for an
embedded metrics layer:

* **cheap on the hot path** — recording a sample is a few attribute
  writes, no locks, no string formatting; an instrument is not
  thread-safe by itself, so the broker, whose dispatcher and submitting
  threads share its counters, records them under its own lock;
* **bounded memory** — histograms keep a fixed-size reservoir of recent
  samples for percentile estimation plus exact running count/sum/min/max
  and fixed-boundary cumulative buckets, so a week-long soak test cannot
  grow the registry;
* **machine-readable** — :meth:`MetricsRegistry.snapshot` returns plain
  dicts ready for ``json.dumps`` and
  :meth:`MetricsRegistry.to_prometheus` renders the Prometheus text
  exposition format, so live scrapes and the bench spine's per-layer
  numbers come from the same instruments.

Labels follow the Prometheus convention textually —
``requests_rejected{reason=queue_full}`` is simply a distinct metric
name — which keeps the registry a flat ``dict`` without a label-matching
engine; the exposition renderer splits the key back into name + labels.

**Secret hygiene**: label *values* are plain strings chosen by the
caller; a label key that names secret material (``sk``, ``alpha``,
``eta``, ...) is rejected at record time, and the TEL001 audit rule
flags such call sites statically.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from typing import Collection, Iterator

from repro.errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SECRET_LABEL_NAMES",
    "labelled",
    "parse_labelled",
    "percentile",
]

#: Fixed histogram bucket boundaries (seconds).  Spanning 100 µs to
#: 60 s covers everything from a single homomorphic multiply to a
#: paper-setting 2048-bit epoch; a ``+Inf`` bucket is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Identifiers that name secret material anywhere in the protocol stack.
#: Mirrors ``repro.audit.engine.DEFAULT_SECRET_NAMES`` (kept literal here
#: so the telemetry plane never imports the analyzer).
SECRET_LABEL_NAMES: frozenset[str] = frozenset(
    {"sk", "lam", "mu", "blinding", "alpha", "beta", "epsilon", "eta"}
)


def labelled(name: str, **labels: str) -> str:
    """``labelled("rejected", reason="queue_full")`` → ``rejected{reason=queue_full}``."""
    if not labels:
        return name
    for key in labels:
        if key in SECRET_LABEL_NAMES:
            raise TelemetryError(
                f"metric label {key!r} names secret material; "
                "telemetry must never record secrets"
            )
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_labelled(key: str) -> tuple[str, dict[str, str]]:
    """Split a flat registry key back into ``(name, labels)``."""
    if "{" not in key or not key.endswith("}"):
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for pair in inner[:-1].split(","):
        if not pair:
            continue
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


def percentile(samples: Collection[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``samples``.

    The textbook definition: the smallest sample such that at least
    ``q`` percent of the data is <= it (``ceil(q/100 * n)``-th order
    statistic).  No interpolation, so the result is always an observed
    sample.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, pool size, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Sample distribution with exact totals, buckets, and percentiles.

    ``count``/``sum``/``min``/``max`` and the cumulative
    ``DEFAULT_BUCKETS`` counts are exact over every observation.  Percentiles are
    computed over the most recent ``reservoir`` samples — a sliding
    window, which for a service runtime is usually *more* useful than
    all-time percentiles (it reflects current behaviour), and is what
    keeps memory bounded.
    """

    __slots__ = ("count", "total", "min", "max", "bounds", "bucket_counts", "_samples")

    def __init__(self, reservoir: int = 4096) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be positive")
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds: tuple[float, ...] = DEFAULT_BUCKETS
        #: Per-boundary counts; index ``len(bounds)`` is the +Inf bucket.
        self.bucket_counts: list[int] = [0] * (len(self.bounds) + 1)
        self._samples: deque[float] = deque(maxlen=reservoir)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self._samples.append(value)

    def cumulative_buckets(self) -> tuple[tuple[float, int], ...]:
        """``((le_bound, cumulative_count), ...)`` ending with ``(inf, count)``."""
        out = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return tuple(out)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the window."""
        return percentile(self._samples, q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self._samples)

        def pct(q: float) -> float:
            rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
            return ordered[rank]

        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": pct(50),
            "p95": pct(95),
            "p99": pct(99),
        }


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats via repr."""
    if isinstance(value, bool):  # pragma: no cover - no bool metrics exist
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    def escape(value: str) -> str:
        # Prometheus 0.0.4 label-value escapes: backslash, quote, newline.
        return (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )

    inner = ",".join(
        f'{k}="{escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Named metrics, created on first use.

    ``registry.counter("x").inc()`` — the registry owns the instances,
    so every component holding the registry sees the same metric.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = labelled(name, **labels)
        try:
            return self._counters[key]
        except KeyError:
            metric = self._counters[key] = Counter()
            return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = labelled(name, **labels)
        try:
            return self._gauges[key]
        except KeyError:
            metric = self._gauges[key] = Gauge()
            return metric

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = labelled(name, **labels)
        try:
            return self._histograms[key]
        except KeyError:
            metric = self._histograms[key] = Histogram()
            return metric

    @contextmanager
    def timer(self, name: str, **labels: str) -> Iterator[None]:
        """Time a block and record seconds into histogram ``name``."""
        histogram = self.histogram(name, **labels)
        start = self._clock()
        try:
            yield
        finally:
            histogram.observe(self._clock() - start)

    def snapshot(self) -> dict:
        """Plain-dict state of every metric, ready for ``json.dumps``."""
        return {
            "counters": {k: c.snapshot() for k, c in sorted(self._counters.items())},
            "gauges": {k: g.snapshot() for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4).

        Counters and gauges render one sample each; histograms render
        cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count``.
        ``# TYPE`` headers are emitted once per metric family, families
        sorted by name for a stable scrape.
        """
        families: dict[str, list[tuple[str, list[str]]]] = {}
        typed: dict[str, str] = {}

        def add(key: str, kind: str, render) -> None:
            name, labels = parse_labelled(key)
            typed.setdefault(name, kind)
            families.setdefault(name, []).append((key, render(name, labels)))

        for key, counter in self._counters.items():
            add(key, "counter", lambda name, labels, c=counter: [
                f"{name}{_format_labels(labels)} {_format_value(c.value)}"
            ])
        for key, gauge in self._gauges.items():
            add(key, "gauge", lambda name, labels, g=gauge: [
                f"{name}{_format_labels(labels)} {_format_value(g.value)}"
            ])
        for key, histogram in self._histograms.items():
            def render_hist(name, labels, h=histogram):
                lines = []
                for bound, cumulative in h.cumulative_buckets():
                    le = "+Inf" if bound == float("inf") else _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_format_labels({**labels, 'le': le})} "
                        f"{cumulative}"
                    )
                total = h.total if h.count else 0.0
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(total)}")
                lines.append(f"{name}_count{_format_labels(labels)} {h.count}")
                return lines

            add(key, "histogram", render_hist)

        out = []
        for name in sorted(families):
            out.append(f"# TYPE {name} {typed[name]}")
            # Sort series by their flat key for scrape stability, but keep
            # each series' own lines in render order (histogram buckets
            # must stay in ascending ``le`` order).
            for _, lines in sorted(families[name], key=lambda pair: pair[0]):
                out.extend(lines)
        return "\n".join(out) + ("\n" if out else "")
