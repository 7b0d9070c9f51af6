"""Tests for oracle-verified automated race repair (repro.owl.repair).

The contract under test: ``repair_program`` emits a patch only when all
three gates pass (diff oracle, detector re-run, scheduler sweep); the
emitted patches agree with the ``apps/*_fixed`` ground truth; the
detector gate has teeth (a candidate that merely *silences* the detector
is rejected because the recorded attack still realizes); and the
schema-9 ``repair`` metrics block is bit-identical across job counts.
Each distinct candidate is gated once, and every target still records
exactly the gates a lone gating of its own clone would.
"""

import gc
import json
import weakref
from collections import Counter

import pytest

from repro.apps.registry import spec_by_name
from repro.ir.patch import ModulePatcher, clone_module
from repro.owl.batch import vuln_to_payload
from repro.owl.cache import ResultCache
from repro.owl.pipeline import OwlPipeline
from repro.owl.provenance import DISPOSITION_REPAIRED
from repro.owl import repair as repair_module
from repro.owl.repair import (
    gate_detector,
    gate_oracle,
    gate_schedulers,
    merge_repair_telemetry,
    repair_program,
    synthesize,
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


@pytest.fixture(scope="module")
def apache_log_repair(apache_log_run):
    spec, result = apache_log_run
    return spec, result, repair_program(spec, result=result)


@pytest.fixture
def gate_calls(monkeypatch):
    """Counts calls of the three gates and of the unpatched allowed-set
    build, wherever ``repair_program`` looks them up."""
    calls = Counter()
    for name in ("gate_oracle", "gate_detector", "gate_schedulers",
                 "_allowed_behaviours"):
        def counted(*args, _name=name, _original=getattr(repair_module, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(repair_module, name, counted)
    return calls


def attack_probes(result):
    return [(vuln_to_payload(detected.vulnerability), detected.ground_truth)
            for detected in result.attacks
            if detected.realized and detected.ground_truth is not None]


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
        probes = attack_probes(result)
        assert probes, "pipeline did not realize the apache_log attack"
        [gate] = gate_detector(spec, patched, [report.static_key],
                               variable=report.variable,
                               attack_probes=probes)
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


class TestGateOnce:
    @pytest.mark.parametrize("fixture", ["memcached_repair",
                                         "apache_log_repair"])
    def test_each_target_records_its_lone_gating(self, fixture, request):
        """Gate a clone synthesized for each target alone: the verdicts
        equal the gates ``repair_program`` recorded for that target from
        the shared gating of its candidate."""
        spec, result, repair = request.getfixturevalue(fixture)
        original = spec.build()
        probes = attack_probes(result)
        for target in repair.targets:
            uids = set()
            for report in result.remaining_reports:
                if report.variable == target.variable:
                    uids.update(report.static_key)
            clone = clone_module(original)
            assert synthesize(target.emitted.strategy, clone,
                              target.static_key,
                              access_uids=sorted(uids)) is not None
            lone = {
                "oracle": gate_oracle(spec, original, clone),
                "detector": gate_detector(spec, clone, [target.static_key],
                                          variable=target.variable,
                                          attack_probes=probes)[0],
                "schedulers": gate_schedulers(spec, clone, seeds=range(3)),
            }
            assert json.dumps(lone, sort_keys=True) == \
                json.dumps(target.emitted.gates, sort_keys=True), target.uid

    def test_detector_reads_each_pair_out_of_one_run(self, memcached_repair):
        """On the unpatched module every verified pair is still reported;
        a pair no report carries is not.  One call over every pair must
        say so pair by pair, exactly as one-pair calls do."""
        spec, result, _ = memcached_repair
        unpatched = clone_module(spec.build())
        keys = sorted(report.static_key
                      for report in result.remaining_reports) + [(0, 0)]
        verdicts = gate_detector(spec, unpatched, keys)
        assert [verdict["pair_reported"] for verdict in verdicts] == \
            [True] * (len(keys) - 1) + [False]
        assert not any(verdict["passed"] for verdict in verdicts[:-1])
        assert verdicts[:1] == gate_detector(spec, unpatched, keys[:1])
        assert verdicts[-1:] == gate_detector(spec, unpatched, keys[-1:])

    def test_targets_on_one_variable_share_one_patch(
            self, memcached_repair, apache_log_repair):
        for _, _, repair in (memcached_repair, apache_log_repair):
            digests = {}
            for payload in repair.patch_payloads():
                digests.setdefault(payload["target"]["variable"],
                                   set()).add(payload["patched_digest"])
            assert all(len(group) == 1 for group in digests.values())
            assert len(set.union(*digests.values())) == len(digests)
        _, _, apache_log = apache_log_repair
        ops = {json.dumps(payload["ops"])
               for payload in apache_log.patch_payloads()}
        assert len(ops) == 1 and "__owl_fix_lock_13_21_26_28" in ops.pop()

    def test_gates_run_once_per_distinct_candidate(
            self, memcached_repair, apache_log_run, gate_calls):
        spec, result, _ = memcached_repair
        repair_program(spec, result=result)
        assert gate_calls == {"gate_oracle": 2, "gate_detector": 2,
                              "gate_schedulers": 2, "_allowed_behaviours": 1}
        gate_calls.clear()
        spec, result = apache_log_run
        repair_program(spec, result=result)
        assert gate_calls == {"gate_oracle": 1, "gate_detector": 1,
                              "gate_schedulers": 1, "_allowed_behaviours": 1}


class TestRepairCache:
    def test_warm_cache_replays_identical_gates(self, tmp_path, gate_calls):
        spec = spec_by_name("apache_log")
        result = OwlPipeline(spec).run()
        cold_cache = ResultCache(str(tmp_path))
        cold = repair_program(spec, result=result, cache=cold_cache)
        assert cold_cache.stage_counters("repair")["stores"] == 4
        assert gate_calls["_allowed_behaviours"] == 1
        gate_calls.clear()
        warm_cache = ResultCache(str(tmp_path))
        warm = repair_program(spec, result=result, cache=warm_cache)
        # every target hits its own entry: no gate, no allowed-set build
        assert warm_cache.stage_counters("repair")["hits"] == 4
        assert not gate_calls
        assert all(target.emitted.cached for target in warm.emitted)
        assert json.dumps(cold.metrics_block(), sort_keys=True) == \
            json.dumps(warm.metrics_block(), sort_keys=True)

    def test_entries_are_keyed_by_the_detect_seeds(self, tmp_path):
        """Gates (a) and (b) sweep the detect seeds: entries gated over 3
        seeds must not answer a run over 6, which gates like a fresh run."""
        spec = spec_by_name("memcached")
        result = OwlPipeline(spec).run()
        spec.detect_seeds = list(range(3))
        repair_program(spec, result=result, cache=ResultCache(str(tmp_path)))
        spec.detect_seeds = list(range(6))
        cache = ResultCache(str(tmp_path))
        wider = repair_program(spec, result=result, cache=cache)
        fresh = repair_program(spec, result=result)
        assert cache.stage_counters("repair")["hits"] == 0
        assert cache.stage_counters("repair")["misses"] == 4
        assert json.dumps(wider.metrics_block(), sort_keys=True) == \
            json.dumps(fresh.metrics_block(), sort_keys=True)
        assert [target.emitted.gates["oracle"]["seeds_checked"]
                for target in wider.targets] == [7] * 4

    def test_two_cold_runs_write_identical_entries(self, tmp_path,
                                                   apache_log_run):
        spec, result = apache_log_run
        trees = []
        for name in ("a", "b"):
            root = tmp_path / name
            repair_program(spec, result=result, cache=ResultCache(str(root)))
            trees.append({
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in (root / "repair").rglob("*.json")})
        assert len(trees[0]) == 4
        assert trees[0] == trees[1]
