"""Tests for the VM sampling profiler (repro.runtime.profiler)."""

import pytest

from repro.apps.registry import spec_by_name
from repro.detectors.seed import SeedJob, run_seed
from repro.runtime.profiler import (
    DEFAULT_SAMPLE_INTERVAL,
    SamplingProfiler,
    SeedProfile,
    merge_profiles,
)


def _job(spec, seed=0, profile=None):
    return SeedJob(seed=seed, entry=spec.entry, inputs=spec.workload_inputs,
                   max_steps=spec.max_steps, profile=profile)


def profile_seed(seed=0, interval=97, program="memcached"):
    spec = spec_by_name(program)
    run = run_seed(_job(spec, seed, profile=interval), module=spec.build())
    assert run.profile is not None
    return run.profile, run.stats


class TestSeedProfile:
    def test_record_and_marginals(self):
        profile = SeedProfile(100)
        profile.record("main;worker", "worker", "Load", True)
        profile.record("main;worker", "worker", "Store", True)
        profile.record("main", "main", "Br", False)
        assert profile.samples == 3
        assert profile.observer_samples == 2
        assert profile.stacks == {"main;worker": 2, "main": 1}
        assert profile.top_functions() == [("worker", 2), ("main", 1)]

    def test_collapsed_format_is_sorted_stack_count_lines(self):
        profile = SeedProfile(100)
        profile.record("b", "b", "Br", False)
        profile.record("a;b", "b", "Br", False)
        profile.record("a;b", "b", "Br", False)
        assert profile.collapsed() == "a;b 2\nb 1"

    def test_payload_round_trip(self):
        profile = SeedProfile(100)
        profile.record("main;worker", "worker", "Load", True)
        clone = SeedProfile.from_payload(profile.to_payload())
        assert clone.to_payload() == profile.to_payload()

    def test_merge_adds_and_rejects_interval_mismatch(self):
        left, right = SeedProfile(100), SeedProfile(100)
        left.record("a", "a", "Br", False)
        right.record("a", "a", "Br", False)
        right.record("b", "b", "Load", True)
        left.merge(right)
        assert left.samples == 3
        assert left.stacks["a"] == 2
        with pytest.raises(ValueError):
            left.merge(SeedProfile(50))

    def test_merge_profiles_skips_nones_and_keeps_order(self):
        one, two = SeedProfile(10), SeedProfile(10)
        one.record("a", "a", "Br", False)
        two.record("b", "b", "Br", False)
        merged = merge_profiles([None, one, None, two])
        assert merged.samples == 2
        assert merge_profiles([None, None]) is None

    def test_summary_block_shape(self):
        profile = SeedProfile(100)
        profile.record("main", "main", "Load", True)
        summary = profile.summary()
        assert summary["interval"] == 100
        assert summary["samples"] == 1
        assert summary["top_functions"] == [["main", 1]]
        assert summary["top_opcodes"] == [["Load", 1]]


class TestSamplingProfiler:
    def test_interval_must_be_positive(self):
        from repro.runtime.scheduler import RandomScheduler

        with pytest.raises(ValueError):
            SamplingProfiler(RandomScheduler(seed=0), interval=0)

    def test_profiled_run_samples_app_functions(self):
        profile, result = profile_seed()
        assert profile.samples == result.steps // 97
        assert profile.samples > 0
        assert profile.observer_samples <= profile.samples
        assert all(profile.stacks.values())

    def test_profile_identical_across_two_same_seed_runs(self):
        first, _ = profile_seed(seed=3)
        second, _ = profile_seed(seed=3)
        assert first.to_payload() == second.to_payload()
        assert first.collapsed() == second.collapsed()

    def test_profiling_leaves_schedule_and_reports_unchanged(self):
        spec = spec_by_name("memcached")
        plain = run_seed(_job(spec), module=spec.build())
        sampled = run_seed(_job(spec, profile=97), module=spec.build())
        plain_reports, sampled_reports = plain.reports, sampled.reports
        assert sampled.stats.steps == plain.stats.steps
        assert ([r.uid for r in sampled_reports.reports()]
                == [r.uid for r in plain_reports.reports()])

    def test_distinct_seeds_can_produce_distinct_profiles(self):
        profiles = {profile_seed(seed=seed)[0].collapsed()
                    for seed in range(4)}
        assert len(profiles) >= 1  # all deterministic, possibly identical

    def test_default_interval_is_used_when_unspecified(self):
        from repro.runtime.interpreter import VM
        from repro.runtime.scheduler import RandomScheduler

        spec = spec_by_name("memcached")
        profiler = SamplingProfiler(RandomScheduler(0))
        vm = VM(spec.build(), scheduler=profiler, inputs=spec.workload_inputs,
                max_steps=spec.max_steps, seed=0)
        vm.start(spec.entry)
        result = vm.run()
        assert profiler.data.interval == DEFAULT_SAMPLE_INTERVAL
        assert profiler.data.samples == result.steps // DEFAULT_SAMPLE_INTERVAL
