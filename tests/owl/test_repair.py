"""Tests for oracle-verified automated race repair (repro.owl.repair).

The contract under test: ``repair_program`` emits a patch only when all
three gates pass (diff oracle, detector re-run, scheduler sweep); the
emitted patches agree with the ``apps/*_fixed`` ground truth; the
detector gate has teeth (a candidate that merely *silences* the detector
is rejected because the recorded attack still realizes); and the
schema-9 ``repair`` metrics block is bit-identical across job counts.
"""

import gc
import json
import weakref

import pytest

from repro.apps.registry import spec_by_name
from repro.ir.patch import ModulePatcher, clone_module
from repro.owl.batch import vuln_to_payload
from repro.owl.cache import ResultCache
from repro.owl.pipeline import OwlPipeline
from repro.owl.provenance import DISPOSITION_REPAIRED
from repro.owl.repair import (
    gate_detector,
    merge_repair_telemetry,
    repair_program,
)
from repro.runtime.interpreter import reference_execution


@pytest.fixture(scope="module")
def memcached_repair():
    spec = spec_by_name("memcached")
    result = OwlPipeline(spec).run()
    return spec, result, repair_program(spec, result=result)


@pytest.fixture(scope="module")
def apache_log_run():
    spec = spec_by_name("apache_log")
    return spec, OwlPipeline(spec).run()


class TestRepairMemcached:
    def test_every_verified_race_repaired(self, memcached_repair):
        _, result, repair = memcached_repair
        assert len(repair.targets) == len(result.remaining_reports) == 4
        assert len(repair.emitted) == 4
        assert all(target.emitted.strategy == "mutex"
                   for target in repair.targets)

    def test_emitted_patches_passed_all_three_gates(self, memcached_repair):
        _, _, repair = memcached_repair
        for target in repair.emitted:
            gates = target.emitted.gates
            assert sorted(gates) == ["detector", "oracle", "schedulers"]
            assert all(gate["passed"] for gate in gates.values())
            assert gates["detector"]["pair_reported"] is False
            assert gates["oracle"]["novel_behaviours"] == []

    def test_ground_truth_disposition_matches(self, memcached_repair):
        _, _, repair = memcached_repair
        assert repair.ground_truth_spec == "memcached_fixed"
        assert all(target.ground_truth_race_gone for target in repair.emitted)

    def test_provenance_disposition_is_repaired(self, memcached_repair):
        _, result, repair = memcached_repair
        for target in repair.emitted:
            record = result.provenance.get(target.uid)
            assert record is not None
            assert "repaired" in record.verdicts()
            assert record.disposition == DISPOSITION_REPAIRED

    def test_patch_payload_carries_evidence(self, memcached_repair):
        _, _, repair = memcached_repair
        payloads = repair.patch_payloads()
        assert len(payloads) == 4
        for payload in payloads:
            assert payload["program"] == "memcached"
            assert payload["strategy"] == "mutex"
            assert payload["ir_diff"]
            assert payload["ops"]
            assert payload["patched_digest"] != repair.original_digest
            assert payload["ground_truth_race_gone"] is True
            json.dumps(payload)  # artifacts must be JSON-serializable

    def test_metrics_block_and_counters(self, memcached_repair):
        _, _, repair = memcached_repair
        block = repair.metrics_block()
        assert block["targets"] == 4
        assert block["emitted"] == 4
        assert block["ground_truth"] == {
            "spec": "memcached_fixed", "checked": 4, "matched": 4}
        counters = block["counters"]
        assert counters["repair.targets"] == 4
        assert counters["repair.emitted"] == 4
        assert counters["repair.emitted.mutex"] == 4
        assert counters["repair.gate.oracle.pass"] >= 4
        assert "repair.unrepaired" not in counters

    def test_describe_names_each_target(self, memcached_repair):
        _, _, repair = memcached_repair
        text = repair.describe()
        assert "4/4 verified races repaired" in text
        assert "repaired via mutex" in text
        assert "oracle=ok, detector=ok, schedulers=ok" in text

    def test_merge_repair_telemetry_lands_counters(self, memcached_repair):
        _, result, repair = memcached_repair
        merge_repair_telemetry(result, repair)
        counters = result.telemetry["counters"]
        assert counters["repair.emitted"] == 4
        assert result.metrics.blocks["telemetry"] is result.telemetry


class TestDetectorGateTeeth:
    def test_atomic_promotion_is_rejected(self, apache_log_run):
        """A patch that silences tsan without fixing the bug must fail
        gate (b): the detector and predict legs go quiet, but re-driving
        the recorded attack still realizes it."""
        spec, result = apache_log_run
        report = sorted(result.remaining_reports,
                        key=lambda r: r.static_key)[0]
        uids = set()
        for other in result.remaining_reports:
            if other.variable == report.variable:
                uids.update(other.static_key)
        patched = clone_module(spec.build())
        patcher = ModulePatcher(patched)
        for uid in sorted(uids):
            patcher.set_atomic(patched.instruction_by_uid(uid), True)
        probes = [(vuln_to_payload(detected.vulnerability),
                   detected.ground_truth)
                  for detected in result.attacks
                  if detected.realized and detected.ground_truth is not None]
        assert probes, "pipeline did not realize the apache_log attack"
        gate = gate_detector(spec, patched, report.static_key,
                             variable=report.variable, attack_probes=probes)
        assert gate["pair_reported"] is False     # detector silenced...
        assert gate["attacks_realized"]           # ...but the attack lives
        assert gate["passed"] is False


class TestRepairApacheLog:
    def test_all_targets_repaired_and_ground_truth_agrees(
            self, apache_log_run):
        spec, result = apache_log_run
        repair = repair_program(spec, result=result)
        assert len(repair.emitted) == len(repair.targets) == 4
        assert repair.ground_truth_spec == "apache_log_fixed"
        assert all(target.ground_truth_race_gone for target in repair.emitted)

    def test_gates_match_reference_execution(self, apache_log_run):
        """The gate VMs fuse under round-robin and PCT; the repair block
        and the patch payloads must not notice."""
        spec, result = apache_log_run
        shipped = repair_program(spec, result=result)
        with reference_execution():
            reference = repair_program(spec, result=result)
        assert (json.dumps(shipped.metrics_block(), sort_keys=True)
                == json.dumps(reference.metrics_block(), sort_keys=True))
        assert (json.dumps(shipped.patch_payloads(), sort_keys=True)
                == json.dumps(reference.patch_payloads(), sort_keys=True))

    def test_patched_clones_are_released(self, apache_log_run, monkeypatch):
        from repro.owl import repair as repair_module

        clones = []
        clone = repair_module.clone_module

        def tracked_clone(module):
            copied = clone(module)
            clones.append(weakref.ref(copied))
            return copied

        monkeypatch.setattr(repair_module, "clone_module", tracked_clone)
        spec, result = apache_log_run
        repair = repair_program(spec, result=result)
        assert repair.emitted and clones
        # a clone awaiting the cyclic collector holds no compiled plans
        assert all(ref().fuse_engine is None
                   for ref in clones if ref() is not None)
        del repair
        gc.collect()
        assert [ref() for ref in clones] == [None] * len(clones)

    def test_metrics_block_identical_across_job_counts(self):
        blocks = []
        for jobs in (1, 2):
            spec = spec_by_name("apache_log")
            result = OwlPipeline(spec, jobs=jobs).run()
            blocks.append(repair_program(spec, result=result).metrics_block())
        assert json.dumps(blocks[0], sort_keys=True) == \
            json.dumps(blocks[1], sort_keys=True)


class TestRepairCache:
    def test_warm_cache_replays_identical_gates(self, tmp_path):
        spec = spec_by_name("apache_log")
        result = OwlPipeline(spec).run()
        cold_cache = ResultCache(str(tmp_path))
        cold = repair_program(spec, result=result, cache=cold_cache)
        assert cold_cache.stage_counters("repair")["stores"] > 0
        warm_cache = ResultCache(str(tmp_path))
        warm = repair_program(spec, result=result, cache=warm_cache)
        assert warm_cache.stage_counters("repair")["hits"] > 0
        assert all(target.emitted.cached for target in warm.emitted)
        assert json.dumps(cold.metrics_block(), sort_keys=True) == \
            json.dumps(warm.metrics_block(), sort_keys=True)
