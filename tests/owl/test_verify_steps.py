"""Verification stages count their VM steps on every execution path.

The race and vulnerability verification stages report the VM steps their
re-executions took, carried through the verification results, the pool
workers' outputs and the result cache.  A race-verification run that took
over its seed's trunk (:class:`repro.owl.race_verifier.Trunk`) counts its
steps from step 0 too: the steps of its own ``VM.run`` calls plus the step
at which it took the trunk over.  The counts, the telemetry counter of
race-verification runs that ended early, and every verification outcome
(per report and per vulnerability, hints and steps included) are
identical at ``jobs=1``, at ``jobs=2`` and on a cold and a warm cache.
"""

import weakref

import pytest

from repro.apps.registry import spec_by_name
from repro.owl import pipeline as pipeline_module
from repro.owl.cache import ResultCache
from repro.owl.pipeline import OwlPipeline
from repro.runtime.interpreter import VM

STAGES = ("race_verification", "vulnerability_verification")
PROGRAM = "apache_log"


def _counts(result):
    """Stage vm_steps, their telemetry counters and the stop counter."""
    counters = result.telemetry["counters"]
    stages = {stage.name: stage.vm_steps for stage in result.metrics.stages
              if stage.name in STAGES}
    return {
        "stages": stages,
        "telemetry": {name: counters["stage.%s.vm_steps" % name]
                      for name in STAGES},
        "stopped_early": counters["race_verify.runs_stopped_early"],
    }


def _outcomes(result):
    """Every field of every race and vulnerability verification."""
    races = []
    for v in result.verifications:
        hints = v.hints
        races.append((
            v.report.uid, v.verified, v.runs_used, v.livelocks_resolved,
            v.runs_stopped_early, v.vm_steps,
            None if hints is None else (
                hints.variable, hints.value_type, hints.read_value,
                hints.write_value, hints.null_write, hints.address),
        ))
    vulns = []
    for attack in result.attacks:
        site, v = attack.vulnerability.site, attack.verification
        vulns.append((
            site.uid, str(site.location), v.site_reached, v.attack_realized,
            [branch.uid for branch in v.diverged_branches],
            [kind.value for kind in v.fault_kinds], v.runs_used, v.vm_steps,
        ))
    return races, vulns


@pytest.fixture(scope="module")
def serial():
    """A serial uncached run, counting by stage the ``VM.run`` step deltas
    and, per run, the step its first ``VM.run`` call started at (0 unless
    the run took over a trunk)."""
    deltas = {name: 0 for name in STAGES}
    takeovers = {name: 0 for name in STAGES}
    runs = weakref.WeakSet()
    current = []
    run = VM.run

    def counting_run(vm, *args, **kwargs):
        before = vm.step
        result = run(vm, *args, **kwargs)
        if current:
            deltas[current[-1]] += vm.step - before
            if vm not in runs:
                runs.add(vm)
                takeovers[current[-1]] += before
        return result

    def in_stage(name, batch):
        def wrapper(*args, **kwargs):
            current.append(name)
            try:
                return batch(*args, **kwargs)
            finally:
                current.pop()

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VM, "run", counting_run)
        patch.setattr(pipeline_module, "verify_races_batch", in_stage(
            "race_verification", pipeline_module.verify_races_batch))
        patch.setattr(pipeline_module, "verify_vulns_batch", in_stage(
            "vulnerability_verification",
            pipeline_module.verify_vulns_batch))
        result = OwlPipeline(spec_by_name(PROGRAM)).run()
    return result, deltas, takeovers


class TestVerificationSteps:
    def test_stages_count_their_vm_steps(self, serial):
        result, deltas, takeovers = serial
        counts = _counts(result)
        assert all(steps > 0 for steps in deltas.values())
        assert takeovers["race_verification"] > 0
        assert takeovers["vulnerability_verification"] == 0
        race = deltas["race_verification"] + takeovers["race_verification"]
        vuln = deltas["vulnerability_verification"]
        expected = {"race_verification": race,
                    "vulnerability_verification": vuln}
        assert counts["stages"] == expected
        assert counts["telemetry"] == expected
        assert counts["stopped_early"] > 0

    def test_verification_results_carry_their_steps(self, serial):
        result, deltas, takeovers = serial
        assert sum(v.vm_steps for v in result.verifications) == \
            deltas["race_verification"] + takeovers["race_verification"]
        assert sum(a.verification.vm_steps for a in result.attacks) == \
            deltas["vulnerability_verification"]

    def test_counts_equal_at_jobs_2(self, serial):
        parallel = OwlPipeline(spec_by_name(PROGRAM), jobs=2).run()
        assert _counts(parallel) == _counts(serial[0])
        assert _outcomes(parallel) == _outcomes(serial[0])

    def test_counts_equal_on_a_warm_cache(self, serial, tmp_path):
        spec = spec_by_name(PROGRAM)
        cold = OwlPipeline(spec, cache=ResultCache(str(tmp_path))).run()
        warm = OwlPipeline(spec, cache=ResultCache(str(tmp_path))).run()
        assert warm.telemetry["counters"]["cache.race_verify.hits"] > 0
        assert warm.telemetry["counters"]["cache.vuln_verify.hits"] > 0
        assert _counts(cold) == _counts(serial[0])
        assert _counts(warm) == _counts(serial[0])
        assert _outcomes(cold) == _outcomes(warm) == _outcomes(serial[0])
