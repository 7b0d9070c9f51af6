"""Fused pipeline integration: parity, cache keys, the schema-8 fuse block.

The contract under test: ``fuse=True`` changes steps/s and nothing else.
Reports, Table-3 parity counters and the telemetry snapshot (minus the two
``fuse.*`` counters that record the request itself) must be bit-identical
to an unfused run, at any job count.
"""

import json

import pytest

from repro.apps.registry import spec_by_name
from repro.detectors.seed import SeedJob
from repro.owl.integration import run_detector
from repro.owl.pipeline import OwlPipeline
from repro.owl.sweep import Sweep
from repro.runtime.metrics import load_metrics


@pytest.fixture(scope="module")
def baseline_result():
    return OwlPipeline(spec_by_name("memcached")).run()


@pytest.fixture(scope="module")
def fused_result():
    return OwlPipeline(spec_by_name("memcached"), fuse=True).run()


def _without_fuse_counters(snapshot):
    trimmed = json.loads(json.dumps(snapshot))
    trimmed["counters"] = {
        key: value for key, value in trimmed["counters"].items()
        if not key.startswith("fuse.")
    }
    return trimmed


class TestFusedPipelineParity:
    def test_parity_counters_identical(self, baseline_result, fused_result):
        assert (fused_result.counters.parity_dict()
                == baseline_result.counters.parity_dict())

    def test_report_sets_identical(self, baseline_result, fused_result):
        assert (sorted(r.static_key for r in fused_result.raw_reports)
                == sorted(r.static_key for r in baseline_result.raw_reports))
        assert (sorted(r.static_key for r in fused_result.remaining_reports)
                == sorted(r.static_key
                          for r in baseline_result.remaining_reports))

    def test_telemetry_identical_modulo_fuse_counters(
            self, baseline_result, fused_result):
        fused = _without_fuse_counters(fused_result.telemetry)
        assert fused == _without_fuse_counters(baseline_result.telemetry)

    def test_fuse_request_counters(self, fused_result, baseline_result):
        counters = fused_result.telemetry["counters"]
        assert counters["fuse.enabled"] == 1
        # the detect stage always runs fused; the annotated re-run only
        # exists when adhoc-sync annotations were found (memcached: none)
        assert counters["fuse.stages_requested"] >= 1
        assert "fuse.enabled" not in baseline_result.telemetry["counters"]

    def test_fused_telemetry_invariant_across_jobs(self, fused_result):
        parallel = OwlPipeline(spec_by_name("memcached"), jobs=2,
                               fuse=True).run()
        assert (json.dumps(parallel.telemetry, sort_keys=True)
                == json.dumps(fused_result.telemetry, sort_keys=True))


class TestSchema8FuseBlock:
    def test_block_shape(self, fused_result):
        block = fused_result.metrics.fuse
        assert block["enabled"] is True
        assert block["compiled_blocks"] > 0
        assert block["fused_steps"] >= block["fused_runs"] > 0
        assert 0.0 < block["fused_step_share"] <= 1.0
        assert block["bailouts"] >= 0
        assert block["invalidations"] == 0

    def test_unfused_run_has_no_block(self, baseline_result):
        assert baseline_result.metrics.fuse is None
        assert "fuse" not in baseline_result.metrics.as_dict()

    def test_save_load_round_trip(self, fused_result, tmp_path):
        path = fused_result.metrics.save(str(tmp_path / "metrics.json"))
        data = load_metrics(path)
        assert data["schema"] == 9
        assert data["fuse"] == fused_result.metrics.fuse


class TestFuseCacheKeys:
    def test_payload_carries_fuse_only_when_on(self):
        assert SeedJob().key_parts()["fuse"] is False
        assert SeedJob(fuse=True).key_parts()["fuse"] is True

    def test_fused_and_stepwise_seeds_cache_separately(self, tmp_path):
        from repro.owl.cache import ResultCache

        sweep = Sweep(cache=ResultCache(str(tmp_path)))
        module = spec_by_name("memcached").build()
        plain = SeedJob(inputs={}, max_steps=1000)
        fused = plain.replace(fuse=True)
        assert (sweep.key("detect", module, plain)
                != sweep.key("detect", module, fused))


class TestFusedDetectorSweeps:
    def test_serial_fused_reports_identical(self):
        spec = spec_by_name("memcached")
        plain, _ = run_detector(spec)
        fused, _ = run_detector(spec, options=SeedJob(fuse=True))
        assert (sorted(r.static_key for r in fused)
                == sorted(r.static_key for r in plain))

    def test_pooled_fused_reports_identical(self):
        spec = spec_by_name("memcached")
        serial, _ = run_detector(spec, options=SeedJob(fuse=True))
        pooled, _ = run_detector(spec, options=SeedJob(fuse=True),
                                 sweep=Sweep(jobs=2))
        assert (sorted(r.static_key for r in pooled)
                == sorted(r.static_key for r in serial))
