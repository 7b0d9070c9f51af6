"""Tests for predictive sync-preserving race detection.

Covers the four layers of :mod:`repro.detectors.predict`:

- the **closure** on hand-built traces: a true race is feasible, pairs
  ordered by locks/joins/atomics are not, and a reversal-only race is
  found only under the optimistic (sync-reversal) relaxation;
- the **prediction pass** over a recorded log, including the
  replay-witness round-trip (a predicted race re-found by replaying the
  synthesized witness schedule with a fresh TSan detector);
- the **explorer wave-0 integration**: jobs=1 and jobs=2 produce
  bit-identical ``predict`` metrics blocks and report sets, and the
  pipeline lands the block in the schema-8 metrics JSON with the
  ``predicted`` provenance verdict attached;
- the **predicted ⊇ observed** property on random IR: every race the HB
  detector observed in the trace is predicted from it (each closure edge
  is an HB edge, so an infeasible pair is HB-ordered).
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings, strategies as st

from repro.detectors.predict import (
    PredictPolicy,
    PredictiveTrace,
    predict_from_log,
    sync_preserving_feasible,
)
from tests.helpers import build_counter_race
from tests.test_properties import build_random_module


class TestSyncPreservingClosure:
    def test_plain_conflicting_pair_is_feasible(self):
        trace = PredictiveTrace()
        trace.fork(0, 1)
        trace.fork(0, 2)
        first = trace.write(1, 0x100)
        second = trace.read(2, 0x100)
        assert sync_preserving_feasible(trace, first, second)

    def test_lock_protected_pair_is_infeasible_in_both_modes(self):
        trace = PredictiveTrace()
        trace.fork(0, 1)
        trace.fork(0, 2)
        trace.acquire(1, 0x10)
        first = trace.write(1, 0x100)
        trace.release(1, 0x10)
        trace.acquire(2, 0x10)
        second = trace.read(2, 0x100)
        trace.release(2, 0x10)
        # Both critical sections hold the same lock around the access:
        # co-enabling the pair would need both sections open at once.
        assert not sync_preserving_feasible(trace, first, second)
        assert not sync_preserving_feasible(trace, first, second,
                                            optimistic=True)

    def test_reversal_only_race_needs_optimistic_mode(self):
        # t1 writes, then runs an unrelated empty critical section; t2
        # later takes the same lock before its racing read.  The write
        # itself needs nothing, but sync preservation forces t2's
        # acquire to observe t1's earlier release — pulling in the write
        # and killing the pair.  t1's section is not *required* by the
        # reordering, so the ASE 2022 relaxation may push it past the
        # race, freeing the read.
        trace = PredictiveTrace()
        trace.fork(0, 1)
        trace.fork(0, 2)
        first = trace.write(1, 0x100)
        trace.acquire(1, 0x10)
        trace.release(1, 0x10)
        trace.acquire(2, 0x10)
        trace.release(2, 0x10)
        second = trace.read(2, 0x100)
        assert not sync_preserving_feasible(trace, first, second)
        assert sync_preserving_feasible(trace, first, second,
                                        optimistic=True)

    def test_join_ordered_pair_is_infeasible(self):
        trace = PredictiveTrace()
        trace.fork(0, 1)
        first = trace.write(1, 0x100)
        trace.join(0, 1)
        second = trace.read(0, 0x100)
        assert not sync_preserving_feasible(trace, first, second)
        assert not sync_preserving_feasible(trace, first, second,
                                            optimistic=True)

    def test_atomic_rel_acq_ordered_pair_is_infeasible(self):
        # flag-publish idiom: the write precedes an atomic store the
        # reader's atomic load observed — the rel-acq edge stays even in
        # optimistic mode (atomics are order-preserved).
        trace = PredictiveTrace()
        trace.fork(0, 1)
        trace.fork(0, 2)
        first = trace.write(1, 0x100)
        trace.atomic_write(1, 0x200)
        trace.atomic_read(2, 0x200)
        second = trace.read(2, 0x100)
        assert not sync_preserving_feasible(trace, first, second)
        assert not sync_preserving_feasible(trace, first, second,
                                            optimistic=True)

    def test_unreleased_section_poisons_the_closure(self):
        trace = PredictiveTrace()
        trace.fork(0, 1)
        trace.fork(0, 2)
        trace.acquire(1, 0x10)
        first = trace.write(1, 0x100)
        # t1 never releases; t2's acquire of the same lock can never be
        # satisfied in any reordering that keeps t1's section.
        trace.acquire(2, 0x10)
        second = trace.read(2, 0x100)
        trace.release(2, 0x10)
        assert not sync_preserving_feasible(trace, first, second)


def _record_counter_race(seed=0, **module_kw):
    from repro.runtime.record import record_seed
    from repro.runtime.scheduler import RandomScheduler

    module = build_counter_race(**module_kw)
    log, _result, _ = record_seed(
        module, seed, scheduler=RandomScheduler(seed), max_steps=50_000,
        program="counter_race",
    )
    return module, log


class TestPredictFromLog:
    def test_predicts_the_counter_race(self):
        module, log = _record_counter_race()
        result = predict_from_log(module, log)
        assert result.counters["predicted"] >= 1
        keys = result.predicted_keys
        assert keys == {r.static_key for r in result.report_set()}
        assert result.counters["replay_divergences"] == 0

    def test_locked_counter_has_no_prediction(self):
        module, log = _record_counter_race(with_lock=True)
        result = predict_from_log(module, log)
        assert result.counters["predicted"] == 0
        assert result.counters["closures"] > 0

    def test_witness_round_trip_confirms_the_race(self):
        # Force witness synthesis by claiming nothing was observed: every
        # prediction must then be re-found by replaying its witness.
        module, log = _record_counter_race()
        result = predict_from_log(module, log, observed_keys=set())
        assert result.counters["predicted"] >= 1
        assert result.counters["witness_attempts"] >= 1
        assert result.counters["witnessed"] == result.counters["predicted"]
        assert result.counters["unwitnessed"] == 0
        for prediction in result.predictions:
            assert prediction.report.tags["predicted"]["witnessed"] is True

    def test_no_witness_policy_marks_predictions_unwitnessed(self):
        module, log = _record_counter_race()
        result = predict_from_log(
            module, log, observed_keys=set(),
            policy=PredictPolicy(witness=False))
        assert result.counters["witness_attempts"] == 0
        assert result.counters["unwitnessed"] == result.counters["predicted"]

    def test_payload_round_trip_is_lossless(self):
        module, log = _record_counter_race()
        result = predict_from_log(module, log)
        clone = type(result).from_payload(module, result.to_payload())
        assert json.dumps(clone.metrics_block(), sort_keys=True) == \
            json.dumps(result.metrics_block(), sort_keys=True)


class TestExplorerPredictWave:
    def _explore(self, jobs):
        from repro.apps.registry import spec_by_name
        from repro.owl.explore import ExplorePolicy
        from repro.owl.integration import run_detector
        from repro.owl.sweep import Sweep

        policy = ExplorePolicy(max_seeds=12, wave_size=4, saturation_k=2,
                               predict=PredictPolicy())
        reports, _ = run_detector(
            spec_by_name("memcached"), sweep=Sweep(jobs=jobs), explore=policy)
        return reports, policy.last

    def test_wave0_is_the_predict_wave(self):
        reports, result = self._explore(jobs=1)
        assert result.predict is not None
        assert result.waves[0].scheduler == "predict"
        assert result.waves[0].seeds == [0]
        predicted = result.predict.predicted_keys
        assert predicted <= {report.static_key for report in reports}
        assert predicted <= result.coverage.pairs

    def test_jobs_parity_is_bit_identical(self):
        reports_1, result_1 = self._explore(jobs=1)
        reports_2, result_2 = self._explore(jobs=2)
        assert json.dumps(result_1.predict.metrics_block(), sort_keys=True) \
            == json.dumps(result_2.predict.metrics_block(), sort_keys=True)
        assert json.dumps(result_1.metrics_block(), sort_keys=True) == \
            json.dumps(result_2.metrics_block(), sort_keys=True)
        assert [r.uid for r in reports_1] == [r.uid for r in reports_2]

    def test_pipeline_lands_predict_block(self):
        from repro.apps.registry import spec_by_name
        from repro.owl.explore import ExplorePolicy
        from repro.owl.pipeline import OwlPipeline

        result = OwlPipeline(spec_by_name("memcached"),
                             explore=ExplorePolicy(predict=PredictPolicy())
                             ).run()
        assert result.predict is not None
        data = result.metrics.as_dict()
        assert data["schema"] == 9
        assert data["predict"]["detector"] == "predict"
        assert data["predict"]["counters"]["predicted"] >= 1
        assert data["telemetry"]["counters"]["predict.predicted"] >= 1
        # the predict wave replaced wave 0, not added to the budget
        assert data["explore"]["waves"][0]["scheduler"] == "predict"

    def test_pipeline_predict_excludes_replay(self):
        import pytest

        from repro.apps.registry import spec_by_name
        from repro.owl.explore import ExplorePolicy
        from repro.owl.pipeline import OwlPipeline

        with pytest.raises(ValueError):
            OwlPipeline(spec_by_name("memcached"),
                        explore=ExplorePolicy(predict=PredictPolicy()),
                        replay=object())

    def test_predicted_verdict_resolves_disposition(self):
        from repro.owl.provenance import (
            DISPOSITION_PREDICTED, ReportProvenance,
        )

        module, log = _record_counter_race()
        report = predict_from_log(module, log).predictions[0].report
        record = ReportProvenance(report)
        record.record("detect", "reported")
        record.record("predict", "predicted", witnessed=False,
                      observed=False, mode="sync-preserving")
        assert record.disposition == DISPOSITION_PREDICTED
        # later verification upgrades it — predicted never outranks
        # evidence from a live re-execution
        record.record("race_verification", "verified")
        assert record.disposition != DISPOSITION_PREDICTED


class TestPredictedSupersetProperty:
    """predicted ⊇ observed: every closure edge is an HB edge of the
    trace, so a pair the closure rejects is HB-ordered and cannot have
    been reported by the HB detector riding the same execution."""

    op_lists = st.lists(
        st.tuples(
            st.sampled_from(["inc", "store", "load", "heap", "locked_inc",
                             "sleep"]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1, max_size=8,
    )

    #: three workers give six cross-thread instances of one static pair,
    #: more than ``max_pairs_per_static``; the observed one came last
    COUNTEREXAMPLE = dict(
        ops=[("locked_inc", 0, 0), ("locked_inc", 0, 0), ("inc", 0, 0)],
        workers=3, seed=3,
    )

    @staticmethod
    def _observed_and_predicted(ops, workers, seed):
        from repro.detectors.tsan import TSanDetector
        from repro.runtime.record import record_seed, replay_log
        from repro.runtime.scheduler import RandomScheduler

        module = build_random_module(ops, workers)
        log, _result, _ = record_seed(
            module, seed, scheduler=RandomScheduler(seed),
            max_steps=30_000, program="rand",
        )
        detector = TSanDetector()
        replay_log(module, log, observers=[detector])
        observed = {report.static_key for report in detector.reports}
        prediction = predict_from_log(
            module, log, policy=PredictPolicy(witness=False))
        return observed, prediction

    @given(op_lists, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=500))
    @example(**COUNTEREXAMPLE)
    @settings(max_examples=15, deadline=None)
    def test_predicted_contains_observed_on_random_ir(self, ops, workers,
                                                      seed):
        observed, prediction = self._observed_and_predicted(
            ops, workers, seed)
        assert observed <= prediction.predicted_keys

    def test_observed_pairs_are_exempt_from_the_per_static_cap(self):
        observed, prediction = self._observed_and_predicted(
            **self.COUNTEREXAMPLE)
        assert len(observed) >= 2
        assert observed <= prediction.predicted_keys
        assert prediction.counters["observed"] == len(observed)
