"""Unit tests for the unified metrics registry (moved from tests/service)."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import metrics
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labelled,
    parse_labelled,
)


class TestLabels:
    def test_plain_name(self):
        assert labelled("requests") == "requests"

    def test_labels_sorted_deterministically(self):
        assert labelled("rejected", reason="full", stage="admit") == (
            "rejected{reason=full,stage=admit}"
        )
        assert labelled("rejected", stage="admit", reason="full") == (
            "rejected{reason=full,stage=admit}"
        )

    def test_parse_roundtrip(self):
        key = labelled("rejected", reason="full", stage="admit")
        assert parse_labelled(key) == (
            "rejected", {"reason": "full", "stage": "admit"}
        )
        assert parse_labelled("plain") == ("plain", {})

    def test_secret_label_names_rejected(self):
        with pytest.raises(TelemetryError):
            labelled("ops", sk="oops")
        with pytest.raises(TelemetryError):
            labelled("ops", alpha=3)


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5

    def test_monotonic(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.snapshot() == 7


class TestHistogram:
    def test_exact_totals(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(6.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert histogram.percentile(99) == pytest.approx(99.0, abs=1.0)

    def test_reservoir_bounds_memory_but_not_totals(self):
        histogram = Histogram(reservoir=10)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        assert len(histogram._samples) == 10
        # Percentiles reflect the most recent window.
        assert histogram.percentile(50) >= 990.0

    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_cumulative_buckets_are_monotone_and_exact(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_BUCKETS", (0.1, 1.0, 10.0))
        histogram = Histogram()
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        buckets = histogram.cumulative_buckets()
        assert buckets == ((0.1, 1), (1.0, 2), (10.0, 3), (float("inf"), 4))


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc()
        assert registry.counter("hits").snapshot() == 2

    def test_labelled_metrics_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("rejected", reason="full").inc()
        registry.counter("rejected", reason="deadline").inc(2)
        snap = registry.snapshot()
        assert snap["counters"]["rejected{reason=full}"] == 1
        assert snap["counters"]["rejected{reason=deadline}"] == 2

    def test_timer_records_elapsed(self):
        ticks = iter([1.0, 3.5])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with registry.timer("phase_s"):
            pass
        snap = registry.snapshot()["histograms"]["phase_s"]
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(2.5)

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(0.25)
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["a"] == 1
        assert parsed["gauges"]["b"] == 1.5
        assert parsed["histograms"]["c"]["count"] == 1


class TestPrometheusExposition:
    def test_counters_and_gauges_render_with_types(self):
        registry = MetricsRegistry()
        registry.counter("hits", route="a").inc(3)
        registry.gauge("depth").set(2)
        text = registry.to_prometheus()
        assert "# TYPE hits counter" in text
        assert 'hits{route="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text

    def test_histogram_renders_cumulative_buckets(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_BUCKETS", (0.1, 1.0))
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        lines = registry.to_prometheus().splitlines()
        assert "# TYPE lat histogram" in lines
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert any(line.startswith("lat_sum ") for line in lines)
        assert "lat_count 3" in lines

    def test_bucket_order_is_ascending_le(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_BUCKETS", (0.5, 2.5, 10.0))
        registry = MetricsRegistry()
        histogram = registry.histogram("t")
        histogram.observe(1.0)
        lines = [
            line for line in registry.to_prometheus().splitlines()
            if line.startswith("t_bucket")
        ]
        les = [line.split('le="')[1].split('"')[0] for line in lines]
        assert les == ["0.5", "2.5", "10", "+Inf"]

    def test_families_sorted_and_type_emitted_once(self):
        registry = MetricsRegistry()
        registry.counter("b_total", x="2").inc()
        registry.counter("b_total", x="1").inc()
        registry.counter("a_total").inc()
        text = registry.to_prometheus()
        assert text.index("a_total") < text.index("b_total")
        assert text.count("# TYPE b_total counter") == 1
        assert text.index('b_total{x="1"}') < text.index('b_total{x="2"}')

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", link='su-0->"sdc"\n').inc()
        text = registry.to_prometheus()
        assert '\\"sdc\\"' in text
        assert "\\n" in text
