"""Exploration saturation — prediction + coverage-guided seeds vs the sweep.

Per evaluated program, three ways to spend the same seed budget:

1. the blind fixed ``range(20)`` sweep (the baseline race set);
2. the coverage-guided explorer (:mod:`repro.owl.explore`): seeds run in
   waves until interleaving coverage saturates;
3. the same explorer with a **predict wave** first
   (:mod:`repro.detectors.predict`): seed 0 runs once with the schedule
   recorder attached, the sync-preserving closure infers every race
   feasible from that single trace, and the predicted pairs pre-seed
   coverage — so residual waves only spend budget on interleavings
   prediction could not decide.

The asserted shape is the ROADMAP criterion: the predicted-plus-residual
race set contains the fixed sweep's on *every* program, while the predict
run executes fewer seeds than the plain explorer on most of them — the
saturation-curve cut the schema-7 ``predict`` metrics block records.
"""

from reporting import emit

from repro.detectors.predict import PredictPolicy
from repro.detectors.ski import run_ski
from repro.detectors.tsan import run_tsan
from repro.owl.explore import ExplorePolicy
from repro.owl.integration import run_detector
from repro.owl.sweep import Sweep

EXPLORED_PROGRAMS = [
    "apache", "chrome", "libsafe", "linux", "memcached", "mysql", "ssdb",
]

BUDGET = 20


def _fixed_sweep(spec):
    run = run_ski if spec.detector == "ski" else run_tsan
    reports, _ = run(
        spec.build(), entry=spec.entry, inputs=spec.workload_inputs,
        seeds=range(BUDGET), max_steps=spec.max_steps)
    return reports


def _explore(spec, predict=None):
    policy = ExplorePolicy(max_seeds=BUDGET, wave_size=4, saturation_k=2,
                           escalate=False, predict=predict)
    sweep = Sweep()
    reports, _ = run_detector(spec, sweep=sweep, explore=policy)
    return {report.static_key for report in reports}, sweep.exploration


def test_explore_saturation(pipelines, benchmark):
    rows = []

    def explore_all():
        del rows[:]
        for name in EXPLORED_PROGRAMS:
            spec = pipelines.spec(name)
            fixed_keys = {
                report.static_key for report in _fixed_sweep(spec)}
            explored_keys, plain = _explore(spec)
            predicted_keys, predicting = _explore(
                spec, predict=PredictPolicy())
            counters = predicting.predict.counters
            rows.append({
                "Name": name,
                "detector": spec.detector,
                "sweep races": len(fixed_keys),
                "explore seeds": "%d/%d" % (plain.seeds_executed, BUDGET),
                "predict seeds": "%d/%d" % (
                    predicting.seeds_executed, BUDGET),
                "predicted": "%d (%d obs, %d wit, %d unwit)" % (
                    counters["predicted"], counters["observed"],
                    counters["witnessed"], counters["unwitnessed"]),
                "matches fixed sweep": explored_keys == fixed_keys,
                "predicted+residual superset": predicted_keys >= fixed_keys,
                "seeds saved vs explore":
                    plain.seeds_executed - predicting.seeds_executed,
            })
        return rows

    benchmark(explore_all)
    assert all(row["matches fixed sweep"] for row in rows), rows
    assert all(row["predicted+residual superset"] for row in rows), rows
    reduced = sum(1 for row in rows if row["seeds saved vs explore"] > 0)
    assert reduced >= 4, rows
    saved = sum(
        BUDGET - int(row["predict seeds"].split("/")[0]) for row in rows)
    emit(
        "explore_saturation",
        "Prediction + exploration vs fixed range(%d) sweep" % BUDGET,
        ["Name", "detector", "sweep races", "explore seeds",
         "predict seeds", "predicted", "matches fixed sweep",
         "predicted+residual superset", "seeds saved vs explore"],
        rows,
        notes="predicted+residual race set contains the fixed sweep's on "
              "every program; predict wave cut seeds on %d/%d programs "
              "(%d of %d budgeted seeds never executed)"
              % (reduced, len(rows), saved, BUDGET * len(rows)),
    )
