"""repro.telemetry — unified tracing and metrics plane.

One observability surface for the whole protocol stack:

* :mod:`repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms in a :class:`MetricsRegistry` with JSON and Prometheus
  text exposition, and the one nearest-rank :func:`percentile`.
* :mod:`repro.telemetry.tracing` — span-based tracer with explicit
  context propagation and deterministic span ids, so tracing never
  perturbs protocol transcripts.

Secret-hygiene invariant: no secret-typed value (keys, plaintexts,
blinding factors) may appear as a span attribute or metric label —
enforced at runtime by both layers and statically by the TEL001 audit
rule.  See ``docs/telemetry.md``.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    SECRET_LABEL_NAMES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labelled,
    parse_labelled,
    percentile,
)
from .tracing import Span, Tracer, child

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SECRET_LABEL_NAMES",
    "labelled",
    "parse_labelled",
    "Span",
    "Tracer",
    "child",
    "percentile",
]
