"""Tests for the benchmark trajectory store and its regression gate."""

import os
import subprocess
import sys

from repro import jsonl
from repro.owl.history import (
    HISTORY_SCHEMA,
    default_history_path,
    git_revision,
    record_from_metrics,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH_REGRESS = os.path.join(REPO_ROOT, "tools", "bench_regress.py")


def sample_metrics(steps_per_second=100000.0, raw_reports=16):
    return {
        "schema": 6,
        "program": "memcached",
        "jobs": 1,
        "total_seconds": 1.5,
        "vm_steps": 18256,
        "stages": [
            {"name": "detect", "wall_seconds": 0.2,
             "steps_per_second": steps_per_second},
            {"name": "race_verification", "wall_seconds": 1.1,
             "steps_per_second": 0.0},
        ],
        "cache": {"hits": 30, "misses": 10, "stores": 10},
        "telemetry": {"counters": {
            "pipeline.raw_reports": raw_reports,
            "pipeline.remaining": 4,
            "pipeline.attacks": 0,
        }},
    }


def run_gate(path, *extra):
    return subprocess.run(
        [sys.executable, BENCH_REGRESS, "--history", str(path)] + list(extra),
        capture_output=True, text=True, cwd=REPO_ROOT)


class TestHistoryRecord:
    def test_record_carries_throughput_walls_and_counters(self):
        record = record_from_metrics(sample_metrics(), timestamp=123.0,
                                     git_rev="abc1234")
        assert record["schema"] == HISTORY_SCHEMA
        assert record["program"] == "memcached"
        assert record["timestamp"] == 123.0
        assert record["git_rev"] == "abc1234"
        assert record["steps_per_second"] == 100000.0
        assert record["stage_wall"]["race_verification"] == 1.1
        assert record["cache_hit_rate"] == 0.75
        assert record["counters"]["pipeline.raw_reports"] == 16

    def test_record_defaults_tolerate_missing_blocks(self):
        record = record_from_metrics({"schema": 1, "program": "x"},
                                     timestamp=0.0, git_rev=None)
        assert record["cache_hit_rate"] is None
        assert record["counters"] == {}
        assert record["steps_per_second"] == 0.0

    def test_git_revision_in_this_repo(self):
        revision = git_revision(cwd=REPO_ROOT)
        assert revision is None or len(revision) >= 7

    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        record = record_from_metrics(sample_metrics(), timestamp=1.0,
                                     git_rev="abc")
        jsonl.write(path, [record], append=True)
        jsonl.write(path, [record], append=True)
        with open(path, "a") as handle:
            handle.write("{torn")  # a crash mid-append must not poison reads
        assert jsonl.read(path) == ([record, record], 1)

    def test_append_after_a_torn_append_keeps_the_next_record(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        first = record_from_metrics(sample_metrics(), timestamp=1.0,
                                    git_rev="a")
        last = record_from_metrics(sample_metrics(), timestamp=3.0,
                                   git_rev="c")
        jsonl.write(path, [first], append=True)
        with open(path, "a") as handle:
            handle.write('{"program": "b", "n')  # a killed writer
        assert jsonl.write(path, [last], append=True) == 1
        assert jsonl.read(path) == ([first, last], 0)

    def test_default_path_is_under_out_dir(self):
        assert default_history_path("benchmarks/out").endswith(
            os.path.join("benchmarks", "out", "history.jsonl"))


class TestBenchRegressGate:
    def write_history(self, path, rates, raw_reports=None, revs=None):
        for index, rate in enumerate(rates):
            metrics = sample_metrics(
                steps_per_second=rate,
                raw_reports=(raw_reports[index] if raw_reports else 16))
            record = record_from_metrics(
                metrics, timestamp=float(index),
                git_rev=(revs[index] if revs else "abc1234"))
            jsonl.write(str(path), [record], append=True)

    def test_exit_1_on_thirty_percent_regression(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 1050.0, 980.0, 700.0])
        completed = run_gate(path)
        assert completed.returncode == 1
        assert "FAIL" in completed.stdout
        assert "-30.0%" in completed.stdout

    def test_exit_0_within_budget(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 1050.0, 980.0, 990.0])
        completed = run_gate(path)
        assert completed.returncode == 0
        assert "PASS" in completed.stdout

    def test_report_only_swallows_failure(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 700.0])
        completed = run_gate(path, "--report-only")
        assert completed.returncode == 0
        assert "ignored" in completed.stdout

    def test_parity_drift_at_same_revision_fails(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 1000.0], raw_reports=[16, 20])
        completed = run_gate(path)
        assert completed.returncode == 1
        assert "DRIFT" in completed.stdout

    def test_counter_change_across_revisions_passes(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 1000.0], raw_reports=[16, 20],
                           revs=["aaaa111", "bbbb222"])
        completed = run_gate(path)
        assert completed.returncode == 0
        assert "review" in completed.stdout

    def test_damaged_history_line_fails_with_file_and_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 1000.0, 1000.0])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = '{"program": "memc\n'
        path.write_text("".join(lines))
        completed = run_gate(path, "--report-only")
        assert completed.returncode == 1
        assert "%s: corrupt record on line 2" % path in completed.stderr

    def test_missing_history_is_not_an_error(self, tmp_path):
        completed = run_gate(tmp_path / "absent.jsonl")
        assert completed.returncode == 0
        assert "nothing to gate" in completed.stdout

    def test_single_record_is_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0])
        completed = run_gate(path)
        assert completed.returncode == 0
        assert "SKIP" in completed.stdout

    def test_custom_threshold(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self.write_history(path, [1000.0, 900.0])
        assert run_gate(path, "--max-regression", "5").returncode == 1
        assert run_gate(path, "--max-regression", "15").returncode == 0
