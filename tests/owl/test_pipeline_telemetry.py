"""End-to-end telemetry determinism: snapshots and profiles.

The telemetry block carries the same parity contract as
``StageCounters.parity_dict()``: its bytes depend only on what was
computed, never on job count, completion order, or wall-clock time.
"""

import json

import pytest

from repro.apps.registry import spec_by_name
from repro.owl.pipeline import OwlPipeline


@pytest.fixture(scope="module")
def serial_result():
    return OwlPipeline(spec_by_name("memcached")).run()


class TestSnapshotParity:
    def test_serial_snapshot_has_every_layer(self, serial_result):
        snapshot = serial_result.telemetry
        counters = snapshot["counters"]
        assert counters["pipeline.raw_reports"] == \
            serial_result.counters.raw_reports
        assert counters["stage.detect.vm_steps"] > 0
        # the span count depends on which items were cache hits (a cached
        # item adopts one marker span), so it stays out of the snapshot
        assert "spans.records" not in snapshot["gauges"]
        assert len(serial_result.spans) > 0
        assert snapshot["histograms"]["vm.steps_per_seed"]["count"] == \
            counters["stage.detect.runs"]
        assert serial_result.metrics.blocks["telemetry"] == snapshot

    def test_jobs2_snapshot_bit_identical_to_serial(self, serial_result):
        parallel = OwlPipeline(spec_by_name("memcached"), jobs=2).run()
        serial_bytes = json.dumps(serial_result.telemetry, sort_keys=True)
        parallel_bytes = json.dumps(parallel.telemetry, sort_keys=True)
        assert serial_bytes == parallel_bytes

    def test_two_serial_runs_snapshot_identically(self, serial_result):
        again = OwlPipeline(spec_by_name("memcached")).run()
        assert again.telemetry == serial_result.telemetry

    def test_cache_counters_fold_into_snapshot(self, tmp_path):
        from repro.owl.cache import ResultCache

        spec = spec_by_name("memcached")
        cold = OwlPipeline(spec, cache=ResultCache(str(tmp_path))).run()
        warm = OwlPipeline(spec, cache=ResultCache(str(tmp_path))).run()
        assert cold.telemetry["counters"]["cache.detect.misses"] > 0
        assert warm.telemetry["counters"]["cache.detect.hits"] > 0


class TestProfiledPipeline:
    def test_profile_summary_lands_in_snapshot_and_metrics(self):
        result = OwlPipeline(spec_by_name("memcached"), profile=97).run()
        assert result.profile is not None
        assert result.profile.samples > 0
        block = result.telemetry["profile"]
        assert block["interval"] == 97
        assert block["samples"] == result.profile.samples
        assert result.metrics.as_dict()["telemetry"]["profile"] == block

    def test_profiled_counters_match_unprofiled(self, serial_result):
        profiled = OwlPipeline(spec_by_name("memcached"), profile=97).run()
        assert profiled.counters.parity_dict() == \
            serial_result.counters.parity_dict()

    def test_profile_parity_across_job_counts(self):
        serial = OwlPipeline(spec_by_name("memcached"), profile=97).run()
        parallel = OwlPipeline(spec_by_name("memcached"), profile=97,
                               jobs=2).run()
        assert serial.profile.to_payload() == parallel.profile.to_payload()

    def test_unprofiled_run_has_no_profile_block(self, serial_result):
        assert serial_result.profile is None
        assert "profile" not in serial_result.telemetry

