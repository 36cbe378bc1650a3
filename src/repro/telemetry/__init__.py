"""repro.telemetry — unified tracing, metrics, and profiling plane.

One observability surface for the whole protocol stack:

* :mod:`repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms in a :class:`MetricsRegistry` with JSON and Prometheus
  text exposition.
* :mod:`repro.telemetry.tracing` — span-based tracer with explicit
  context propagation and deterministic span ids, so tracing never
  perturbs protocol transcripts.
* :mod:`repro.telemetry.profiling` — ``Timer`` / ``phase_profile`` /
  ``ProfileCapture`` hooks shared by benchmarks and the service.

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
)
from .profiling import ProfileCapture, Timer, percentile, phase_profile
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
    "Timer",
    "phase_profile",
    "ProfileCapture",
    "percentile",
]
