"""Fused pipeline integration: parity, the ``fuse`` block, no fuse option.

The contract under test: fusion changes steps/s and nothing else.  Every
VM fuses wherever its scheduler commits a run, so a default pipeline run
is the fused one; its reports, Table-3 parity counters and telemetry
snapshot must be bit-identical to a run under ``stepwise_execution()``,
at any job count.
"""

import json

import pytest

from repro.apps.registry import spec_by_name
from repro.detectors.seed import SeedJob
from repro.owl.integration import run_detector
from repro.owl.pipeline import OwlPipeline
from repro.owl.sweep import Sweep
from repro.runtime.interpreter import stepwise_execution
from repro.runtime.metrics import load_metrics


@pytest.fixture(scope="module")
def baseline_result():
    with stepwise_execution():
        return OwlPipeline(spec_by_name("memcached")).run()


@pytest.fixture(scope="module")
def fused_result():
    return OwlPipeline(spec_by_name("memcached")).run()


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
        # no fuse counter reaches the registry: they are job-count
        # dependent and live in the metrics ``fuse`` block
        assert not any(key.startswith("fuse.")
                       for key in fused_result.telemetry["counters"])
        assert (json.dumps(fused_result.telemetry, sort_keys=True)
                == json.dumps(baseline_result.telemetry, sort_keys=True))

    def test_fused_telemetry_invariant_across_jobs(self, fused_result):
        parallel = OwlPipeline(spec_by_name("memcached"), jobs=2).run()
        assert (json.dumps(parallel.telemetry, sort_keys=True)
                == json.dumps(fused_result.telemetry, sort_keys=True))


class TestSchema8FuseBlock:
    def test_block_shape(self, fused_result):
        block = fused_result.metrics.blocks["fuse"]
        assert block["enabled"] is True
        assert block["compiled_blocks"] > 0
        assert block["fused_steps"] >= block["fused_runs"] > 0
        assert 0.0 < block["fused_step_share"] <= 1.0
        assert 0 <= block["skipped_steps"] <= block["fused_steps"]
        assert block["bailouts"] >= 0
        assert block["invalidations"] == 0

    def test_stepwise_run_reports_a_disabled_block(self, baseline_result):
        block = baseline_result.metrics.blocks["fuse"]
        assert block["enabled"] is False
        assert (block["fused_steps"] == block["compiled_blocks"]
                == block["skipped_steps"] == 0)

    def test_block_holds_this_runs_deltas(self):
        spec = spec_by_name("memcached")
        first = OwlPipeline(spec).run().metrics.blocks["fuse"]
        second = OwlPipeline(spec).run().metrics.blocks["fuse"]
        # the second run reuses the module engine's plans: it compiles
        # only sites that first turned hot in it, and fuses at least as
        # many steps as the first
        assert second["compiled_blocks"] < first["compiled_blocks"]
        assert second["fused_steps"] >= first["fused_steps"] > 0

    def test_save_load_round_trip(self, fused_result, tmp_path):
        path = fused_result.metrics.save(str(tmp_path / "metrics.json"))
        data = load_metrics(path)
        assert data["schema"] == 9
        assert data["fuse"] == fused_result.metrics.blocks["fuse"]


class TestFuseCacheKeys:
    def test_seed_jobs_carry_no_fuse_option(self, tmp_path):
        from repro.owl.cache import ResultCache

        assert "fuse" not in SeedJob._fields
        sweep = Sweep(cache=ResultCache(str(tmp_path)))
        module = spec_by_name("memcached").build()
        job = SeedJob(inputs={}, max_steps=1000)
        parts = [job.key_parts()]
        with stepwise_execution():
            stepwise_keys = sweep.keys("detect", module, parts)
        assert sweep.keys("detect", module, parts) == stepwise_keys


class TestFusedDetectorSweeps:
    def test_serial_fused_reports_identical(self):
        spec = spec_by_name("memcached")
        with stepwise_execution():
            plain, _ = run_detector(spec)
        fused, _ = run_detector(spec)
        assert (sorted(r.static_key for r in fused)
                == sorted(r.static_key for r in plain))

    def test_pooled_fused_reports_identical(self):
        spec = spec_by_name("memcached")
        serial, _ = run_detector(spec)
        pooled, _ = run_detector(spec, sweep=Sweep(jobs=2))
        assert (sorted(r.static_key for r in pooled)
                == sorted(r.static_key for r in serial))
