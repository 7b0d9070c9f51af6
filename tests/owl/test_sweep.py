"""Tests for the seed-sweep driver (repro.owl.sweep) and SeedJob keys.

The contract under test: one frozen :class:`SeedJob` names a detector
execution completely, so every field outside the declared non-key set
reaches the cache key; and the sweep returns the same per-seed
:class:`RunStats` whichever strategy (serial, pool, cache) runs it.
"""

import pytest

from repro.apps.registry import spec_by_name
from repro.detectors.predict import PredictPolicy
from repro.detectors.seed import NON_KEY_FIELDS, SeedJob, run_seed
from repro.owl.cache import ResultCache
from repro.owl.explore import ExplorePolicy
from repro.owl.integration import run_detector
from repro.owl.pipeline import OwlPipeline
from repro.owl.sweep import Sweep
from repro.runtime.metrics import RunStats

#: changed values for fields whose type alone does not suggest one
_ALTERNATIVES = {
    "kind": "ski",
    "scheduler": "pct",
    "entry": "other",
    "inputs": {"x": 1},
    "entry_args": (1,),
    "annotations": ((1, 2, "flag"),),
    "profile": 7,
}


def _changed(name, value):
    if name in _ALTERNATIVES:
        return _ALTERNATIVES[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    pytest.fail("no alternative value for SeedJob.%s" % name)


class TestSeedJobKeys:
    def test_every_key_field_changes_the_detect_key(self, tmp_path):
        sweep = Sweep(cache=ResultCache(str(tmp_path)))
        module = spec_by_name("libsafe").build()
        base = SeedJob()
        base_key = sweep.key("detect", module, base)
        for name in SeedJob._fields:
            if name in NON_KEY_FIELDS:
                continue
            other = base.replace(**{name: _changed(name, getattr(base, name))})
            assert sweep.key("detect", module, other) != base_key, name

    def test_non_key_fields_leave_the_key_alone(self, tmp_path):
        sweep = Sweep(cache=ResultCache(str(tmp_path)))
        module = spec_by_name("libsafe").build()
        base = SeedJob()
        assert set(NON_KEY_FIELDS) == {"source", "record"}
        for changed in (base.replace(record=True),
                        base.replace(source="libsafe")):
            assert (sweep.key("detect", module, changed)
                    == sweep.key("detect", module, base))

    def test_stages_key_separately(self, tmp_path):
        sweep = Sweep(cache=ResultCache(str(tmp_path)))
        module = spec_by_name("libsafe").build()
        job = SeedJob()
        assert (sweep.key("detect", module, job)
                != sweep.key("record", module, job))

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedJob(kind="helgrind")
        with pytest.raises(ValueError):
            SeedJob(scheduler="round-robin")
        assert SeedJob().family == "random"
        assert SeedJob(kind="ski").family == "pct"
        assert SeedJob(scheduler="pct").family == "pct"

    def test_options_never_change_the_reports(self):
        spec = spec_by_name("memcached")
        plain = SeedJob(seed=1, entry=spec.entry,
                        inputs=spec.workload_inputs,
                        max_steps=spec.max_steps)
        baseline = run_seed(plain, module=spec.build())
        every = plain.replace(record=True, coverage=True, profile=97,
                              fuse=True)
        run = run_seed(every, module=spec.build())
        assert run.stats.steps == baseline.stats.steps
        assert ([r.uid for r in run.reports]
                == [r.uid for r in baseline.reports])
        assert run.log is not None and run.log.seed == 1
        assert run.coverage is not None and run.profile is not None


class TestSweepParity:
    def test_sweep_returns_run_stats_at_every_job_count(self, tmp_path):
        spec = spec_by_name("libsafe")
        seen = []
        for sweep in (Sweep(), Sweep(jobs=2),
                      Sweep(cache=ResultCache(str(tmp_path)))):
            stats_out = []
            reports, stats = run_detector(spec_by_name("libsafe"),
                                          sweep=sweep, stats_out=stats_out)
            assert all(isinstance(stat, RunStats) for stat in stats)
            assert [stat.seed for stat in stats_out] == \
                [stat.seed for stat in stats]
            seen.append((
                sorted(report.static_key for report in reports),
                [(stat.seed, stat.reason, stat.steps, stat.accesses,
                  stat.reports) for stat in stats],
            ))
        assert seen[0] == seen[1] == seen[2]
        assert [entry[0] for entry in seen[1][1]] == list(spec.detect_seeds)

    def test_runs_out_carries_per_seed_outputs(self):
        runs = []
        run_detector(spec_by_name("libsafe"), sweep=Sweep(jobs=2),
                     options=SeedJob(profile=97), runs_out=runs)
        assert all(run.profile is not None for run in runs)
        assert all(run.log is None for run in runs)


class TestPredictWaveCache:
    def test_warm_profiled_predict_run_keeps_every_profile(self, tmp_path):
        def run():
            return OwlPipeline(
                spec_by_name("memcached"), cache=ResultCache(str(tmp_path)),
                explore=ExplorePolicy(predict=PredictPolicy()), profile=7,
            ).run()

        cold = run()
        warm = run()
        assert warm.metrics.blocks["cache"]["misses"] == 0
        assert warm.profile.summary() == cold.profile.summary()
