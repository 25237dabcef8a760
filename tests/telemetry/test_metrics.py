"""Tests for the metrics registry: counters, gauges, histograms."""

import math

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero(self):
        counter = Counter("c", "help")
        assert counter.value() == 0.0
        assert counter.total() == 0.0

    def test_inc_default_amount(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc()
        assert counter.value() == 2.0

    def test_labels_partition_the_series(self):
        counter = Counter("c", "help")
        counter.inc(server="a")
        counter.inc(server="a")
        counter.inc(server="b")
        assert counter.value(server="a") == 2.0
        assert counter.value(server="b") == 1.0
        assert counter.total() == 3.0

    def test_label_order_does_not_matter(self):
        counter = Counter("c", "help")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0

    def test_negative_increment_rejected(self):
        counter = Counter("c", "help")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_samples_enumerate_all_series(self):
        counter = Counter("c", "help")
        counter.inc(server="a")
        counter.inc(server="b", amount=2.5)
        samples = dict(counter.samples())
        assert samples[(("server", "a"),)] == 1.0
        assert samples[(("server", "b"),)] == 2.5


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge("g", "help")
        gauge.set(42.0)
        assert gauge.value() == 42.0

    def test_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.inc(3.0)
        gauge.dec(1.0)
        assert gauge.value() == 2.0

    def test_labelled_series_independent(self):
        gauge = Gauge("g", "help")
        gauge.set(1.0, host="a")
        gauge.set(9.0, host="b")
        assert gauge.value(host="a") == 1.0
        assert gauge.value(host="b") == 9.0


class TestHistogram:
    def test_default_buckets_end_in_inf(self):
        assert DEFAULT_BUCKETS[-1] == math.inf

    def test_observe_counts_and_sums(self):
        hist = Histogram("h", "help")
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(105.5)

    def test_cumulative_buckets(self):
        hist = Histogram("h", "help")
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        (_, sample), = hist.samples()
        cumulative = dict(sample.cumulative())
        assert cumulative[1.0] == 1
        assert cumulative[5.0] == 2   # a value on a bound lands in it
        assert cumulative[10.0] == 2
        assert cumulative[100.0] == 3
        assert cumulative[math.inf] == 3

    def test_inf_bucket_always_present(self):
        hist = Histogram("h", "help")
        hist.observe(1e9)
        (_, sample), = hist.samples()
        cumulative = dict(sample.cumulative())
        assert cumulative[DEFAULT_BUCKETS[-2]] == 0
        assert cumulative[math.inf] == 1

    def test_labelled_histograms(self):
        hist = Histogram("h", "help")
        hist.observe(1.0, site="edge")
        hist.observe(2.0, site="cloud")
        assert hist.count(site="edge") == 1
        assert hist.count(site="cloud") == 1
        assert hist.count() == 0  # the unlabelled series is untouched


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests", "help")
        second = registry.counter("requests", "other help ignored")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "help")
        with pytest.raises(ValueError):
            registry.gauge("x", "help")

    def test_len_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("a", "help")
        registry.histogram("b", "help")
        assert len(registry) == 2
        assert "a" in registry
        assert "missing" not in registry

    def test_instruments_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz", "help")
        registry.counter("aa", "help")
        names = [instrument.name for instrument in registry.instruments()]
        assert names == sorted(names)

    def test_get_unknown_returns_none(self):
        assert MetricsRegistry().get("nope") is None
