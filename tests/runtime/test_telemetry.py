"""Tests for the central metrics registry (repro.runtime.telemetry)."""

import json

import pytest

from repro.runtime.telemetry import (
    REPORT_BUCKETS,
    STEP_BUCKETS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)


class TestCountersAndGauges:
    def test_counter_create_on_demand_and_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("vm.steps")
        counter.inc()
        counter.inc(41)
        assert registry.counter("vm.steps").value == 42

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_gauge_set_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge("explore.total_pairs").set(10)
        registry.gauge("explore.total_pairs").set(7)
        assert registry.gauge("explore.total_pairs").value == 7


class TestHistogram:
    def test_observe_places_values_in_buckets(self):
        histogram = Histogram("h", (10, 100))
        for value in (5, 10, 50, 1000):
            histogram.observe(value)
        # counts: <=10, (10,100], >100
        assert histogram.counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.total == 1065

    def test_bounds_must_be_sorted_and_non_empty(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (10, 5))

    def test_re_registration_with_other_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        assert registry.histogram("h", (1, 2)).bounds == (1, 2)
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 3))

    def test_default_bucket_constants_are_sorted(self):
        assert list(STEP_BUCKETS) == sorted(STEP_BUCKETS)
        assert list(REPORT_BUCKETS) == sorted(REPORT_BUCKETS)


class TestSnapshot:
    def build(self, steps):
        registry = MetricsRegistry()
        registry.counter("pipeline.raw_reports").inc(16)
        registry.gauge("explore.total_pairs").set(23)
        histogram = registry.histogram("vm.steps_per_seed", STEP_BUCKETS)
        for value in steps:
            histogram.observe(value)
        return registry

    def test_snapshot_is_plain_json_with_sorted_names(self):
        snapshot = self.build([500, 1500]).snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])
        assert snapshot["histograms"]["vm.steps_per_seed"]["count"] == 2

    def test_snapshot_independent_of_observation_order(self):
        forward = self.build([100, 900, 4000]).snapshot()
        backward = self.build([4000, 900, 100]).snapshot()
        assert forward == backward

    def test_merge_snapshot_adds_counters_and_buckets(self):
        registry = self.build([500])
        registry.merge_snapshot(self.build([70000]).snapshot())
        snapshot = registry.snapshot()
        assert snapshot["counters"]["pipeline.raw_reports"] == 32
        assert snapshot["histograms"]["vm.steps_per_seed"]["count"] == 2

    def test_merge_gauge_takes_incoming_value(self):
        registry = self.build([500])
        incoming = self.build([500])
        incoming.gauge("explore.total_pairs").set(99)
        registry.merge_snapshot(incoming.snapshot())
        assert registry.snapshot()["gauges"]["explore.total_pairs"] == 99

    def test_merge_is_associative(self):
        parts = [self.build(values).snapshot()
                 for values in ([100], [900, 4000], [70000])]
        left = merge_snapshots(merge_snapshots(parts[0], parts[1]), parts[2])
        right = merge_snapshots(parts[0], merge_snapshots(parts[1], parts[2]))
        flat = merge_snapshots(*parts)
        assert left == right == flat
        assert flat["counters"]["pipeline.raw_reports"] == 48

    def test_merge_rejects_mismatched_histogram_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2)).observe(1)
        other = MetricsRegistry()
        other.histogram("h", (1, 3)).observe(1)
        with pytest.raises(ValueError):
            registry.merge_snapshot(other.snapshot())
