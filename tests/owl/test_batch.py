"""Tests for the parallel batch engine (repro.owl.batch) and its metrics.

The contract under test: fanning work out over worker processes changes
wall-clock behaviour only — every report, counter and verification outcome
is bit-identical to the serial run on the same seeds.
"""

import json
import os

from repro.apps.registry import spec_by_name
from repro.owl.batch import (
    can_parallelize,
    make_executor,
    report_from_payload,
    report_to_payload,
    verify_races_batch,
)
from repro.owl.integration import run_detector
from repro.owl.pipeline import OwlPipeline
from repro.owl.sweep import Sweep
from repro.runtime.metrics import (
    PipelineMetrics,
    RunStats,
    StageMetrics,
    metrics_path,
)
from repro.spec import ProgramSpec


def _report_fingerprint(report):
    return (
        report.static_key,
        report.variable,
        report.first.thread_id,
        report.second.thread_id,
        report.first.value,
        report.second.value,
        tuple(a.instruction.uid for a in report.subsequent_reads),
    )


def _fingerprints(reports):
    return [_report_fingerprint(report) for report in reports]


class TestPayloads:
    def test_report_round_trip(self):
        spec = spec_by_name("libsafe")
        reports, _ = run_detector(spec)
        assert len(reports) > 0
        rebuilt_module = spec.build()  # deterministic: same uids
        for report in reports:
            payload = report_to_payload(report)
            clone = report_from_payload(rebuilt_module, payload)
            assert _report_fingerprint(clone) == _report_fingerprint(report)
            assert clone.first.instruction.uid == report.first.instruction.uid
            assert clone.first.call_stack == report.first.call_stack
            assert clone.first.byte_range == report.first.byte_range


class TestDetectorParity:
    def test_parallel_detect_matches_serial(self):
        spec = spec_by_name("libsafe")
        serial, serial_stats = run_detector(spec)
        parallel, parallel_stats = run_detector(spec, sweep=Sweep(jobs=2))
        assert _fingerprints(parallel) == _fingerprints(serial)
        assert [s.seed for s in parallel_stats] == [s.seed for s in serial_stats]
        assert [s.steps for s in parallel_stats] == [s.steps for s in serial_stats]
        assert [s.reports for s in parallel_stats] == [
            s.reports for s in serial_stats]

    def test_multi_program_batch(self):
        # one pool serves several programs' sweeps
        specs = [spec_by_name("libsafe"), spec_by_name("ssdb")]
        executor = make_executor(2)
        try:
            sweep = Sweep(executor=executor)
            results = {spec.name: run_detector(spec, sweep=sweep)
                       for spec in specs}
        finally:
            executor.shutdown()
        for spec in specs:
            serial, _ = run_detector(spec_by_name(spec.name))
            reports, stats = results[spec.name]
            assert _fingerprints(reports) == _fingerprints(serial)
            assert len(stats) == len(list(spec.detect_seeds))

    def test_race_verification_parity(self):
        # Serial verification works on instruction *identity*, so detect and
        # verify must share one spec instance (as the pipeline does); the
        # parallel path rehydrates by uid in the workers.
        spec = spec_by_name("libsafe")
        reports, _ = run_detector(spec)
        serial = verify_races_batch(spec, reports, Sweep())
        spec2 = spec_by_name("libsafe")
        reports2, _ = run_detector(spec2)
        parallel = verify_races_batch(spec2, reports2, Sweep(jobs=2))
        assert [v.verified for v in parallel] == [v.verified for v in serial]
        assert [v.runs_used for v in parallel] == [v.runs_used for v in serial]


class TestPipelineParity:
    def test_parallel_pipeline_counters_identical(self):
        serial = OwlPipeline(spec_by_name("libsafe")).run()
        parallel = OwlPipeline(spec_by_name("libsafe"), jobs=2).run()
        assert parallel.counters.parity_dict() == serial.counters.parity_dict()
        assert (
            [a.realized for a in parallel.attacks]
            == [a.realized for a in serial.attacks]
        )
        assert (
            [t.attack_id for t in parallel.detected_ground_truths()]
            == [t.attack_id for t in serial.detected_ground_truths()]
        )

    def test_unregistered_spec_falls_back_to_serial(self):
        base = spec_by_name("libsafe")
        clone = ProgramSpec(
            name="not-in-registry",
            module_factory=base.module_factory,
            detector=base.detector,
            entry=base.entry,
            workload_inputs=base.workload_inputs,
            detect_seeds=base.detect_seeds,
            verify_seeds=base.verify_seeds,
            max_steps=base.max_steps,
            attacks=base.attacks,
        )
        assert can_parallelize(base)
        assert not can_parallelize(clone)
        result = OwlPipeline(clone, jobs=4).run()
        assert result.metrics.jobs == 1  # silently serial
        assert result.counters.raw_reports > 0

    def test_shared_executor_reuse(self):
        spec = spec_by_name("libsafe")
        executor = make_executor(2)
        try:
            sweep = Sweep(executor=executor)
            first, _ = run_detector(spec, sweep=sweep)
            second, _ = run_detector(spec, sweep=sweep)
        finally:
            executor.shutdown()
        assert _fingerprints(first) == _fingerprints(second)


class TestMetrics:
    def test_pipeline_metrics_recorded(self):
        result = OwlPipeline(spec_by_name("libsafe")).run()
        metrics = result.metrics
        assert metrics is not None
        assert [stage.name for stage in metrics.stages] == [
            "detect", "schedule_reduction", "race_verification",
            "vulnerability_analysis", "vulnerability_verification",
        ]
        detect = metrics.stage_by_name("detect")
        assert detect.runs == len(list(result.spec.detect_seeds))
        assert detect.vm_steps > 0
        assert detect.accesses > 0
        assert metrics.total_seconds > 0
        assert metrics.vm_steps >= detect.vm_steps

    def test_metrics_json_schema(self, tmp_path):
        result = OwlPipeline(spec_by_name("libsafe"), jobs=2).run()
        path = metrics_path(str(tmp_path), "libsafe")
        assert result.metrics.save(path) == path
        with open(path) as handle:
            data = json.load(handle)
        assert data["program"] == "libsafe"
        assert data["jobs"] == 2
        assert data["total_seconds"] > 0
        for stage in data["stages"]:
            for key in ("name", "wall_seconds", "items", "unit", "runs",
                        "vm_steps", "accesses", "steps_per_second",
                        "items_per_second"):
                assert key in stage, stage["name"]
        assert os.path.basename(path) == "metrics_libsafe.json"

    def test_run_stats_absorption(self):
        stage = StageMetrics("detect", unit="reports")
        stage.absorb_run_stats([
            RunStats(0, "exit", steps=100, accesses=10, reports=1,
                     wall_seconds=0.5),
            RunStats(1, "exit", steps=200, accesses=30, reports=2,
                     wall_seconds=0.5),
        ])
        assert stage.runs == 2
        assert stage.vm_steps == 300
        assert stage.accesses == 40
        stage.wall_seconds = 2.0
        stage.items = 3
        assert stage.steps_per_second == 150.0
        assert stage.items_per_second == 1.5

    def test_describe_lists_every_stage(self):
        metrics = PipelineMetrics("demo", jobs=3)
        with metrics.stage("detect"):
            pass
        text = metrics.describe()
        assert "demo" in text and "jobs=3" in text and "detect" in text
