"""Coverage-guided schedule exploration with adaptive seed budgets.

The detectors' fixed seed sweep (``seeds=range(N)``) is blind: it spends
the same compute whether the last ten schedules found new races or nothing
at all.  Paper §6.3 runs SKI/TSan over *many* schedules precisely because
races only surface when the perturbation reaches a new interleaving — and
as RaceFixer observes for triage, duplicate observations dominate cost.
This driver replaces the blind sweep with a measured, early-stopping
exploration loop:

1. seeds run in **waves**, each one call into the sweep driver
   (:class:`repro.owl.sweep.Sweep`: in-process, or fanned out over the
   process pool when ``jobs > 1``);
2. after each wave the per-seed :class:`repro.runtime.coverage.SeedCoverage`
   is merged — in seed order, deterministically — into a
   :class:`repro.runtime.coverage.CoverageMap`, yielding the wave's
   ``new_pairs`` delta;
3. a wave that adds nothing is *dry*; a dry wave **escalates** the
   schedule family (TSan: uniform random → PCT; SKI: deeper PCT) while
   budget remains, because more of the same family has stopped paying;
4. exploration stops at **saturation** — ``saturation_k`` consecutive dry
   waves — or when the ``max_seeds`` budget is spent, whichever is first.

Determinism: wave composition, escalation and stopping depend only on the
seed-ordered coverage merge, so the explored seed set, the merged
:class:`ReportSet` and every wave counter are bit-identical at any job
count — the same parity contract :class:`repro.owl.pipeline.StageCounters`
keeps, and tested the same way (jobs=1 vs jobs=2).  Per-seed results
(reports, stats, coverage snapshot) are cacheable through the ordinary
``detect`` stage of :class:`repro.owl.cache.ResultCache`; the schedule
family and depth are part of each key, so escalated re-runs of a seed
never collide with its base-family entry.  A predict wave is one stage
item of its own (:func:`predict_item`, the ``predict`` stage), run
through the same :meth:`repro.owl.sweep.Sweep.map`.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.detectors.annotations import annotations_from_payload
from repro.detectors.predict import (
    PredictionResult,
    PredictPolicy,
    predict_from_log,
)
from repro.detectors.report import ReportSet
from repro.detectors.seed import run_seed
from repro.owl.sweep import merge_runs, seed_run
from repro.runtime.coverage import CoverageMap, SeedCoverage

#: Schedule-family ladders: the base rung first, then each escalation.
#: TSan escalates from uniform random into PCT (a stronger bug-finding
#: family); SKI is PCT already, so escalation deepens it.
_TSAN_LADDER: Tuple[Tuple[str, int], ...] = (
    ("random", 3), ("pct", 3), ("pct", 5),
)


def _ski_ladder(depth: int) -> Tuple[Tuple[str, int], ...]:
    return (("pct", depth), ("pct", depth + 2), ("pct", depth + 4))


class _ExplorePolicyFields(NamedTuple):
    max_seeds: int = 20
    wave_size: int = 4
    saturation_k: int = 2
    escalate: bool = True
    ladder: Optional[Tuple[Tuple[str, int], ...]] = None
    predict: Optional[PredictPolicy] = None


class ExplorePolicy(_ExplorePolicyFields):
    """Knobs of one exploration run.

    - ``max_seeds`` — the total seed budget (the blind sweep this replaces
      is ``range(20)``; exploration may stop well short of it).
    - ``wave_size`` — seeds per wave; coverage is measured between waves.
    - ``saturation_k`` — consecutive dry waves before declaring saturation.
    - ``escalate`` — whether a dry wave climbs the schedule-family ladder
      before the budget runs out; ``False`` keeps the base family for the
      whole run (useful when comparing against a fixed sweep).
    - ``ladder`` — explicit ``((family, depth), ...)`` override; by default
      derived from the detector kind.
    - ``predict`` — a :class:`repro.detectors.predict.PredictPolicy` turns
      wave 0 into a *predict* wave: seed 0 runs once, recorded, and the
      sync-preserving closure pre-seeds coverage with every race
      inferable from that single trace — so later waves only spend seed
      budget on interleavings prediction could not decide.

    A value: each exploration's :class:`ExplorationResult` lands on the
    sweep that ran it (:attr:`repro.owl.sweep.Sweep.exploration`).
    :meth:`as_dict` names every setting and :meth:`from_dict` rebuilds an
    equal policy, so a run log can carry it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        policy = super().__new__(cls, *args, **kwargs)
        for name in ("max_seeds", "wave_size", "saturation_k"):
            if getattr(policy, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if policy.ladder is None:
            return policy
        return policy._replace(ladder=tuple(
            (family, depth) for family, depth in policy.ladder))

    def ladder_for(self, kind: str, depth: int) -> Tuple[Tuple[str, int], ...]:
        if self.ladder is not None:
            return self.ladder
        return _ski_ladder(depth) if kind == "ski" else _TSAN_LADDER

    def as_dict(self) -> Dict:
        return {
            "max_seeds": self.max_seeds,
            "wave_size": self.wave_size,
            "saturation_k": self.saturation_k,
            "escalate": self.escalate,
            "ladder": None if self.ladder is None
            else [list(rung) for rung in self.ladder],
            "predict": None if self.predict is None
            else self.predict.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExplorePolicy":
        predict = data["predict"]
        return cls(**dict(data, predict=None if predict is None
                          else PredictPolicy(**predict)))


class WaveRecord:
    """One wave of the exploration loop, as recorded in the metrics JSON."""

    __slots__ = ("index", "seeds", "scheduler", "depth", "new_pairs",
                 "new_signatures", "total_pairs", "dry", "escalated")

    def __init__(self, index: int, seeds: List[int], scheduler: str,
                 depth: int, new_pairs: int, new_signatures: int,
                 total_pairs: int, escalated: bool = False):
        self.index = index
        self.seeds = list(seeds)
        self.scheduler = scheduler
        self.depth = depth
        self.new_pairs = new_pairs
        self.new_signatures = new_signatures
        self.total_pairs = total_pairs
        self.dry = new_pairs == 0
        self.escalated = escalated

    def as_dict(self) -> Dict:
        return {
            "index": self.index,
            "seeds": list(self.seeds),
            "scheduler": self.scheduler,
            "depth": self.depth,
            "new_pairs": self.new_pairs,
            "new_signatures": self.new_signatures,
            "total_pairs": self.total_pairs,
            "dry": self.dry,
            "escalated": self.escalated,
        }

    def __repr__(self) -> str:
        return "<Wave %d %s/d%d seeds=%s new_pairs=%d>" % (
            self.index, self.scheduler, self.depth, self.seeds,
            self.new_pairs,
        )


class ExplorationResult:
    """Everything one exploration run produced, beyond the report set."""

    def __init__(self, kind: str, policy: ExplorePolicy):
        self.kind = kind
        self.policy = policy
        self.waves: List[WaveRecord] = []
        self.coverage = CoverageMap()
        self.saturated = False
        #: Index of the wave that sealed saturation (None: budget ran out).
        self.saturation_wave: Optional[int] = None
        self.seeds_executed = 0
        self.wall_seconds = 0.0
        #: The :class:`repro.detectors.predict.PredictionResult` of the
        #: predict wave, when the policy asked for one.
        self.predict = None

    @property
    def seeds_skipped(self) -> int:
        """Budgeted seeds the early stop never had to execute."""
        return self.policy.max_seeds - self.seeds_executed

    def metrics_block(self) -> Dict:
        """The metrics-JSON ``"explore"`` block."""
        return {
            "detector": self.kind,
            "policy": self.policy.as_dict(),
            "seeds_executed": self.seeds_executed,
            "seeds_skipped": self.seeds_skipped,
            "saturated": self.saturated,
            "saturation_wave": self.saturation_wave,
            "total_pairs": self.coverage.total_pairs,
            "distinct_schedules": self.coverage.distinct_schedules,
            "waves": [wave.as_dict() for wave in self.waves],
        }

    def describe(self) -> str:
        lines = [
            "exploration: %d/%d seeds (%s), %d racy pairs, %d schedules" % (
                self.seeds_executed, self.policy.max_seeds,
                "saturated at wave %s" % self.saturation_wave
                if self.saturated else "budget exhausted",
                self.coverage.total_pairs, self.coverage.distinct_schedules,
            )
        ]
        for wave in self.waves:
            lines.append(
                "  wave %d: seeds %s  %s/d%d  +%d pairs (%d total)%s" % (
                    wave.index, wave.seeds, wave.scheduler, wave.depth,
                    wave.new_pairs, wave.total_pairs,
                    "  [dry]" if wave.dry else "",
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<ExplorationResult %s waves=%d executed=%d saturated=%s>" % (
            self.kind, len(self.waves), self.seeds_executed, self.saturated,
        )


# ---------------------------------------------------------------------------
# wave execution


def predict_item(wave: Tuple, tracer=None, module=None,
                 world_factory=None) -> Dict:
    """Run a predict wave (``(job, predict policy)``) on ``module``: the
    recorded job once, then the prediction from its log.

    The output payload is the run's, with the prediction in place of the
    log it consumed and the coverage *pre-seeded* with every predicted
    static pair — the delta that makes later waves dry when they only
    rediscover what prediction already decided.  ``world_factory`` builds
    the OS world for the prediction's witness replays.
    """
    job, policy = wave
    run = run_seed(job, module=module, tracer=tracer)
    prediction = predict_from_log(
        module, run.log,
        annotations=annotations_from_payload(module, job.annotations),
        inputs=job.inputs, world_factory=world_factory, policy=policy,
        observed_keys={report.static_key for report in run.reports},
    )
    seed0 = run.coverage
    run.coverage = SeedCoverage(
        seed=0, pairs=seed0.pairs | prediction.predicted_keys,
        signature=seed0.signature, switches=seed0.switches,
    )
    run.log = None
    output = run.to_payload()
    output["prediction"] = prediction.to_payload()
    return output


def _run_predict_wave(module, job, sweep, predict_policy, world_factory=None):
    """Wave 0 of a predicting exploration: one recorded run + closure.

    Runs ``job`` (seed 0, the base schedule family, recorder attached)
    once in-process as a ``predict`` stage item (:func:`predict_item`),
    keyed by the job and the policy.  Returns ``(reports, run,
    prediction)``: ``reports`` merges the seed-0 reports with the
    predicted ones (:func:`repro.detectors.predict.predict_from_log`), and
    ``run.coverage`` is pre-seeded with every predicted pair.  Serial and
    deterministic at any job count; a cached wave records a
    ``cached=True`` ``detect_seed`` marker like any cached seed.
    """
    def finish(index: int, output: Dict):
        return (seed_run(module, job, output, sweep.tracer),
                PredictionResult.from_payload(module, output["prediction"]))

    parts = [dict(job.key_parts(), predict=predict_policy.as_dict())]
    [(run, prediction)] = sweep.map(
        "predict", predict_item, [(job, predict_policy)],
        sweep.keys("predict", module, parts), finish, rebuildable=False,
        module=module, world_factory=world_factory)
    reports = ReportSet()
    reports.merge(run.reports)
    for item in prediction.predictions:
        reports.add(item.report)
    return reports, run, prediction


# ---------------------------------------------------------------------------
# the exploration loop


def explore_seeds(module, base, sweep, explore: Optional[ExplorePolicy] = None,
                  world_factory=None):
    """Coverage-guided exploration over seeds ``0 .. max_seeds - 1``.

    The explore strategy of :func:`repro.owl.sweep.run_sweep` (same
    ``(reports, runs)`` return contract): each wave runs ``base`` over the
    next seeds under the current ladder rung through ``sweep``.  The seeds
    are the prefix of the blind sweep's ``range()`` under the same base
    family, so a run that saturates before escalating finds exactly the
    fixed prefix's races.  The :class:`ExplorationResult` lands on
    ``sweep.exploration``; ``sweep.tracer`` gets one instant ``wave`` span
    per wave, after the wave's seeds.

    Every job tracks coverage through the
    :class:`repro.runtime.coverage.SwitchTracker` wrapper, which observes
    every decision, so explored seeds execute stepwise.  With
    ``explore.predict`` set, wave 0 is the predict wave
    (:func:`_run_predict_wave`); ``world_factory`` builds
    the OS world for its witness replays.
    """
    explore = explore if explore is not None else ExplorePolicy()
    base = base.replace(coverage=True)
    ladder = explore.ladder_for(base.kind, base.depth)
    result = ExplorationResult(base.kind, explore)
    merged = ReportSet()
    runs: List = []
    started = time.perf_counter()
    rung = 0
    dry = 0
    while not result.saturated and result.seeds_executed < explore.max_seeds:
        family, wave_depth = ladder[rung]
        cursor = result.seeds_executed
        if cursor == 0 and explore.predict is not None:
            scheduler = "predict"
            wave_reports, run, result.predict = _run_predict_wave(
                module, base.replace(seed=0, scheduler=family,
                                     depth=wave_depth, record=True),
                sweep, explore.predict, world_factory=world_factory,
            )
            wave_runs = [run]
        else:
            scheduler = family
            wave_runs = sweep.run(module, [
                base.replace(seed=seed, scheduler=family, depth=wave_depth)
                for seed in range(cursor, min(cursor + explore.wave_size,
                                              explore.max_seeds))
            ])
            wave_reports = merge_runs(wave_runs)
        wave_seeds = [run.job.seed for run in wave_runs]
        signatures_before = result.coverage.distinct_schedules
        new_pairs = sum(result.coverage.merge_all(  # seed order
            [run.coverage for run in wave_runs]))
        merged.merge(wave_reports)
        runs.extend(wave_runs)
        result.seeds_executed += len(wave_runs)
        escalated = False
        if new_pairs == 0:
            dry += 1
            if dry >= explore.saturation_k:
                result.saturated = True
                result.saturation_wave = len(result.waves)
            elif (scheduler != "predict" and explore.escalate
                  and rung + 1 < len(ladder)):
                # A wave of this family stopped paying while budget
                # remains: climb the ladder before giving up.
                rung += 1
                escalated = True
        else:
            dry = 0
        result.waves.append(WaveRecord(
            len(result.waves), wave_seeds, scheduler, wave_depth, new_pairs,
            result.coverage.distinct_schedules - signatures_before,
            result.coverage.total_pairs, escalated=escalated,
        ))
        if sweep.tracer is not None:
            sweep.tracer.instant(
                "wave", index=len(result.waves) - 1, seeds=wave_seeds,
                scheduler=scheduler, depth=wave_depth, new_pairs=new_pairs,
                total_pairs=result.coverage.total_pairs,
                dry=new_pairs == 0, escalated=escalated,
                saturated=result.saturated)
    result.wall_seconds = time.perf_counter() - started
    sweep.exploration = result
    return merged, runs
