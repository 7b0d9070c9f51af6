"""Tests for coverage-guided schedule exploration (repro.owl.explore)."""

import json

import pytest

from repro import OwlPipeline, spec_by_name
from repro.detectors.seed import SeedJob
from repro.detectors.tsan import run_tsan
from repro.owl.explore import ExplorePolicy
from repro.owl.integration import run_detector
from repro.owl.sweep import Sweep, run_sweep
from tests.helpers import build_counter_race


def _static_keys(reports):
    return sorted({report.static_key for report in reports})


class TestExplorePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExplorePolicy(max_seeds=0)
        with pytest.raises(ValueError):
            ExplorePolicy(wave_size=0)
        with pytest.raises(ValueError):
            ExplorePolicy(saturation_k=0)

    def test_ladders(self):
        policy = ExplorePolicy()
        assert policy.ladder_for("tsan", 3)[0] == ("random", 3)
        assert policy.ladder_for("ski", 3) == (
            ("pct", 3), ("pct", 5), ("pct", 7))
        override = ExplorePolicy(ladder=[("pct", 9)])
        assert override.ladder_for("tsan", 3) == (("pct", 9),)


class TestExplorationLoop:
    def test_saturates_and_skips_budget(self):
        module = build_counter_race(iterations=3)
        policy = ExplorePolicy(max_seeds=20, wave_size=4, saturation_k=2)
        sweep = Sweep()
        reports, runs = run_sweep(module, SeedJob(), sweep=sweep,
                                  explore=policy)
        result = sweep.exploration
        assert result.saturated
        assert result.saturation_wave == result.waves[-1].index
        assert result.seeds_executed < policy.max_seeds
        assert result.seeds_skipped == policy.max_seeds - result.seeds_executed
        assert len(runs) == result.seeds_executed
        assert len(reports) > 0

    def test_dry_wave_escalates_before_saturation(self):
        module = build_counter_race(iterations=3)
        policy = ExplorePolicy(max_seeds=40, wave_size=4, saturation_k=3)
        sweep = Sweep()
        run_sweep(module, SeedJob(), sweep=sweep, explore=policy)
        result = sweep.exploration
        escalations = [wave for wave in result.waves if wave.escalated]
        assert escalations, "a dry wave should climb the ladder"
        first = escalations[0]
        follow = result.waves[first.index + 1]
        assert (follow.scheduler, follow.depth) != (
            result.waves[0].scheduler, result.waves[0].depth)

    def test_escalate_false_keeps_base_family(self):
        module = build_counter_race(iterations=3)
        policy = ExplorePolicy(max_seeds=16, wave_size=4, saturation_k=2,
                               escalate=False)
        sweep = Sweep()
        run_sweep(module, SeedJob(), sweep=sweep, explore=policy)
        waves = sweep.exploration.waves
        assert {wave.scheduler for wave in waves} == {"random"}
        assert not any(wave.escalated for wave in waves)

    def test_wave_seeds_are_the_fixed_sweep_prefix(self):
        module = build_counter_race(iterations=3)
        policy = ExplorePolicy(max_seeds=10, wave_size=3, saturation_k=4)
        sweep = Sweep()
        run_sweep(module, SeedJob(), sweep=sweep, explore=policy)
        result = sweep.exploration
        flattened = [seed for wave in result.waves for seed in wave.seeds]
        assert flattened == list(range(result.seeds_executed))

    def test_metrics_block_shape(self):
        module = build_counter_race(iterations=3)
        policy = ExplorePolicy(max_seeds=8, wave_size=4)
        sweep = Sweep()
        run_sweep(module, SeedJob(), sweep=sweep, explore=policy)
        block = sweep.exploration.metrics_block()
        assert block["detector"] == "tsan"
        assert block["policy"]["max_seeds"] == 8
        assert block["seeds_executed"] + block["seeds_skipped"] == 8
        assert "saturation_wave" in block
        for wave in block["waves"]:
            assert {"index", "seeds", "scheduler", "depth", "new_pairs",
                    "new_signatures", "total_pairs", "dry",
                    "escalated"} <= set(wave)
        json.dumps(block)  # must be JSON-serializable as-is


class TestMatchesFixedSweep:
    """Acceptance: explore finds the fixed range(20) races with fewer seeds."""

    @pytest.mark.parametrize("program", ["memcached", "apache_log"])
    def test_explore_matches_fixed_sweep_with_fewer_seeds(self, program):
        spec = spec_by_name(program)
        policy = ExplorePolicy(max_seeds=20, wave_size=4, saturation_k=2)
        sweep = Sweep()
        reports, _ = run_detector(spec, sweep=sweep, explore=policy)
        fixed, _ = run_tsan(
            spec.build(), entry=spec.entry, inputs=spec.workload_inputs,
            seeds=range(20), max_steps=spec.max_steps)
        assert _static_keys(reports) == _static_keys(fixed)
        result = sweep.exploration
        assert result.seeds_executed < 20 or result.saturation_wave is not None


class TestJobParity:
    def test_jobs1_vs_jobs2_identical_exploration(self):
        def run(jobs):
            policy = ExplorePolicy(max_seeds=12, wave_size=4, saturation_k=2)
            sweep = Sweep(jobs=jobs)
            reports, _ = run_detector(
                spec_by_name("memcached"), explore=policy, sweep=sweep)
            return (
                sorted(report.uid for report in reports),
                json.dumps(sweep.exploration.metrics_block(), sort_keys=True),
            )

        serial = run(1)
        parallel = run(2)
        assert serial[0] == parallel[0]
        assert serial[1] == parallel[1]


class TestPipelineIntegration:
    def test_pipeline_records_exploration(self):
        policy = ExplorePolicy(max_seeds=16, wave_size=4, saturation_k=2)
        result = OwlPipeline(spec_by_name("memcached"),
                             explore=policy).run()
        assert result.explore is not None
        assert result.explore.seeds_executed >= 1
        data = result.metrics.as_dict()
        assert data["schema"] == 9
        assert data["explore"]["saturation_wave"] == \
            result.explore.saturation_wave
        detect_stage = result.metrics.stage_by_name("detect")
        assert detect_stage.extra["seeds_executed"] == \
            result.explore.seeds_executed
        assert "saturation_wave" in detect_stage.extra

    def test_pipeline_without_explore_has_no_block(self):
        result = OwlPipeline(spec_by_name("memcached")).run()
        assert result.explore is None
        assert "explore" not in result.metrics.as_dict()
