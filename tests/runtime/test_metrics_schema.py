"""Tests for the metrics JSON envelope and its loader."""

import json
import os

import pytest

from repro.runtime.metrics import (
    SCHEMA_VERSION,
    MetricsSchemaError,
    PipelineMetrics,
    load_metrics,
)


#: Metrics files written by earlier revisions, kept verbatim.
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


def saved_metrics(tmp_path):
    metrics = PipelineMetrics("demo", jobs=2)
    with metrics.stage("detect", unit="reports") as stage:
        stage.items = 3
    path = str(tmp_path / "metrics_demo.json")
    metrics.save(path)
    return path


class TestMetricsSchema:
    def test_as_dict_declares_current_schema(self):
        assert PipelineMetrics("demo").as_dict()["schema"] == SCHEMA_VERSION

    def test_current_schema_is_nine_and_supports_ancestors(self):
        """The envelope is frozen at 9: a new block bumps nothing."""
        assert SCHEMA_VERSION == 9

    def test_committed_metrics_artifacts_load(self):
        """Old files are the same envelope with fewer blocks."""
        schemas = {
            name: load_metrics(os.path.join(FIXTURES, name))["schema"]
            for name in sorted(os.listdir(FIXTURES))
        }
        assert schemas == {
            "metrics_apache.json": 1,
            "metrics_diffcheck_apache.json": 4,
            "metrics_diffcheck_memcached.json": 8,
        }

    def test_loader_accepts_all_supported_versions(self, tmp_path):
        path = saved_metrics(tmp_path)
        for version in range(1, SCHEMA_VERSION + 1):
            with open(path) as handle:
                data = json.load(handle)
            data["schema"] = version
            with open(path, "w") as handle:
                json.dump(data, handle)
            assert load_metrics(path)["schema"] == version

    def test_explore_block_round_trips(self, tmp_path):
        metrics = PipelineMetrics("demo", jobs=1)
        metrics.blocks["explore"] = {"detector": "tsan", "saturation_wave": 2,
                           "seeds_executed": 12, "waves": []}
        path = str(tmp_path / "metrics_explore.json")
        metrics.save(path)
        data = load_metrics(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["explore"]["saturation_wave"] == 2

    def test_explore_block_absent_by_default(self, tmp_path):
        data = load_metrics(saved_metrics(tmp_path))
        assert "explore" not in data

    def test_diff_oracle_block_round_trips(self, tmp_path):
        metrics = PipelineMetrics("demo", jobs=1)
        metrics.blocks["diff_oracle"] = {"seeds": 10, "divergences": 0,
                               "reference_steps_per_second": 100000.0,
                               "optimized_steps_per_second": 200000.0,
                               "speedup": 2.0,
                               "report_sets_identical": True,
                               "counters_identical": True}
        path = str(tmp_path / "metrics_diffcheck_demo.json")
        metrics.save(path)
        data = load_metrics(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["diff_oracle"]["divergences"] == 0
        assert data["diff_oracle"]["speedup"] == 2.0

    def test_diff_oracle_block_absent_by_default(self, tmp_path):
        data = load_metrics(saved_metrics(tmp_path))
        assert "diff_oracle" not in data

    def test_replay_block_round_trips(self, tmp_path):
        metrics = PipelineMetrics("demo", jobs=1)
        metrics.blocks["replay"] = {"logs": 20, "decisions": 61234,
                          "record_dir": "benchmarks/out/records/demo",
                          "replays": 40, "schedule_divergences": 0,
                          "sync_divergences": 0, "thread_divergences": 0,
                          "unfaithful_replays": 0}
        path = str(tmp_path / "metrics_replay_demo.json")
        metrics.save(path)
        data = load_metrics(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["replay"]["logs"] == 20
        assert data["replay"]["unfaithful_replays"] == 0

    def test_replay_block_absent_by_default(self, tmp_path):
        data = load_metrics(saved_metrics(tmp_path))
        assert "replay" not in data

    def test_repair_block_round_trips(self, tmp_path):
        metrics = PipelineMetrics("demo", jobs=1)
        metrics.blocks["repair"] = {"program": "demo", "original_digest": "ab12",
                          "targets": 4, "candidates": 12, "emitted": 4,
                          "ground_truth": {"spec": "demo_fixed",
                                           "checked": 4, "matched": 4},
                          "per_target": [], "counters": {}}
        path = str(tmp_path / "metrics_repair_demo.json")
        metrics.save(path)
        data = load_metrics(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["repair"]["emitted"] == 4
        assert data["repair"]["ground_truth"]["matched"] == 4

    def test_repair_block_absent_by_default(self, tmp_path):
        data = load_metrics(saved_metrics(tmp_path))
        assert "repair" not in data

    def test_telemetry_block_round_trips(self, tmp_path):
        metrics = PipelineMetrics("demo", jobs=1)
        metrics.blocks["telemetry"] = {
            "counters": {"pipeline.raw_reports": 16, "cache.detect.hits": 3},
            "gauges": {"explore.total_pairs": 412},
            "histograms": {"vm.steps_per_seed": {
                "bounds": [100, 1000], "counts": [0, 2, 1],
                "sum": 4200, "count": 3}},
            "profile": {"interval": 251, "samples": 70,
                        "observer_samples": 23,
                        "top_functions": [["worker", 41]],
                        "top_opcodes": [["Store", 18]]},
        }
        path = str(tmp_path / "metrics_telemetry_demo.json")
        metrics.save(path)
        data = load_metrics(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["telemetry"]["counters"]["pipeline.raw_reports"] == 16
        assert data["telemetry"]["profile"]["interval"] == 251

    def test_telemetry_block_absent_by_default(self, tmp_path):
        data = load_metrics(saved_metrics(tmp_path))
        assert "telemetry" not in data

    def test_load_round_trips_saved_file(self, tmp_path):
        path = saved_metrics(tmp_path)
        data = load_metrics(path)
        assert data["program"] == "demo"
        assert data["stages"][0]["name"] == "detect"

    def test_load_rejects_unknown_version(self, tmp_path):
        path = saved_metrics(tmp_path)
        with open(path) as handle:
            data = json.load(handle)
        data["schema"] = SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(MetricsSchemaError, match="unsupported"):
            load_metrics(path)

    def test_unknown_version_error_names_schema_and_supported_list(
            self, tmp_path):
        """The rejection message must carry everything needed to act on it:
        the file, the offending version, and the supported range."""
        path = saved_metrics(tmp_path)
        with open(path) as handle:
            data = json.load(handle)
        data["schema"] = 99
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(MetricsSchemaError) as excinfo:
            load_metrics(path)
        message = str(excinfo.value)
        assert path in message
        assert "99" in message
        assert "supported: 1-9" in message

    def test_load_rejects_missing_schema_field(self, tmp_path):
        path = saved_metrics(tmp_path)
        with open(path) as handle:
            data = json.load(handle)
        del data["schema"]
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(MetricsSchemaError):
            load_metrics(path)
