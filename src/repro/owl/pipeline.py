"""The end-to-end OWL pipeline (paper Figure 3).

Stages, with the counters that reproduce Tables 2 and 3:

1. **detect** — the front-end race detector over the testing workload
   (R.R., "Race Reports").
2. **schedule reduction** — static adhoc-sync detection over the reports,
   annotation, and a detector re-run (A.S., "Adhoc Synchronizations").
3. **race verification** — thread-specific-breakpoint verification of each
   remaining report; unverifiable reports are eliminated (R.V.E.), the rest
   remain (R.).
4. **input reduction** — Algorithm 1 over each remaining report, producing
   vulnerable-input-hint reports (Table 2's "# OWL's reports"); per-report
   analysis time is tracked (A.C.).
5. **vulnerability verification** — each hint is re-executed; hints whose
   site matches a known attack use that attack's subtle inputs and racing
   order (the "user intervention" of section 4.3).

Each stage's units of work — detector seeds, the adhoc classification,
race verifications, Algorithm-1 propagations, vulnerability
verifications — are stage items (:mod:`repro.owl.batch`) run through the
run's one :class:`repro.owl.sweep.Sweep`, which answers them from the
cache, in-process or in the pool; the stages here record counters,
metrics and provenance from the rehydrated results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional

from repro.detectors.annotations import AnnotationSet
from repro.detectors.report import RaceReport, ReportSet
from repro.detectors.seed import SeedJob
from repro.owl.adhoc import AdhocSyncDetector
from repro.owl.batch import (
    BatchPolicy,
    analyze_reports_batch,
    can_parallelize,
    classify_adhoc,
    make_executor,
    verify_races_batch,
    verify_vulns_batch,
)
from repro.owl.explore import ExplorePolicy
from repro.owl.integration import run_detector, usable_reports
from repro.owl.race_verifier import RaceVerification
from repro.owl.sweep import Sweep
from repro.owl.vuln_analysis import VulnerabilityReport
from repro.owl.vuln_verifier import VulnVerification
from repro.owl.provenance import ProvenanceLog
from repro.runtime.fuse import fuse_engine
from repro.runtime.interpreter import fusion_enabled
from repro.runtime.metrics import PipelineMetrics
from repro.runtime.spans import SpanTracer
from repro.spec import AttackGroundTruth, ProgramSpec


class StageCounters:
    """The Table 3 row for one program."""

    def __init__(self):
        self.raw_reports = 0                # R.R.
        self.adhoc_syncs = 0                # A.S. (unique static)
        self.after_annotation = 0
        self.verifier_eliminated = 0        # R.V.E.
        self.remaining = 0                  # R.
        self.vulnerability_reports = 0      # Table 2 "# OWL's reports"
        self.analysis_seconds_per_report = 0.0  # A.C.
        self.total_seconds = 0.0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of raw reports pruned before developers see them."""
        if self.raw_reports == 0:
            return 0.0
        return 1.0 - (self.remaining / self.raw_reports)

    def as_dict(self) -> Dict[str, float]:
        return {
            "raw_reports": self.raw_reports,
            "adhoc_syncs": self.adhoc_syncs,
            "after_annotation": self.after_annotation,
            "verifier_eliminated": self.verifier_eliminated,
            "remaining": self.remaining,
            "vulnerability_reports": self.vulnerability_reports,
            "analysis_seconds_per_report": self.analysis_seconds_per_report,
            "reduction_ratio": self.reduction_ratio,
        }

    def parity_dict(self) -> Dict[str, float]:
        """The deterministic counters only — bit-identical between serial
        and parallel runs on the same seeds (timings are measurements, not
        counters, and differ between any two runs)."""
        data = self.as_dict()
        data.pop("analysis_seconds_per_report", None)
        return data

    def __repr__(self) -> str:
        return (
            "<StageCounters raw=%d adhoc=%d eliminated=%d remaining=%d vulns=%d>"
            % (
                self.raw_reports, self.adhoc_syncs, self.verifier_eliminated,
                self.remaining, self.vulnerability_reports,
            )
        )


class DetectedAttack:
    """A pipeline finding: a verified vulnerability, matched to ground truth."""

    def __init__(self, vulnerability: VulnerabilityReport,
                 verification: VulnVerification,
                 ground_truth: Optional[AttackGroundTruth]):
        self.vulnerability = vulnerability
        self.verification = verification
        self.ground_truth = ground_truth

    @property
    def realized(self) -> bool:
        return self.verification.attack_realized

    def __repr__(self) -> str:
        label = self.ground_truth.attack_id if self.ground_truth else "unknown"
        return "<DetectedAttack %s %s>" % (
            label, "realized" if self.realized else "unrealized",
        )


class PipelineResult:
    """Everything the pipeline produced for one program."""

    def __init__(self, spec: ProgramSpec):
        self.spec = spec
        self.counters = StageCounters()
        self.metrics: Optional[PipelineMetrics] = None
        self.spans: Optional[SpanTracer] = None
        self.provenance: Optional[ProvenanceLog] = None
        #: The detect stage's :class:`repro.owl.explore.ExplorationResult`
        #: when the run used coverage-guided exploration.
        self.explore = None
        #: The predict wave's
        #: :class:`repro.detectors.predict.PredictionResult` when
        #: exploration ran with a predict policy.
        self.predict = None
        #: The run's deterministic telemetry snapshot (the metrics
        #: ``"telemetry"`` block): job-count-invariant counters, gauges
        #: and histograms assembled from every layer.
        self.telemetry: Optional[Dict] = None
        #: Merged :class:`repro.runtime.profiler.SeedProfile` when the
        #: run profiled its detector stages (``profile=K``).
        self.profile = None
        self.raw_reports: Optional[ReportSet] = None
        self.annotations: Optional[AnnotationSet] = None
        self.annotated_reports: Optional[ReportSet] = None
        self.verifications: List[RaceVerification] = []
        self.remaining_reports: List[RaceReport] = []
        self.vulnerabilities: List[VulnerabilityReport] = []
        self.attacks: List[DetectedAttack] = []

    def realized_attacks(self) -> List[DetectedAttack]:
        return [attack for attack in self.attacks if attack.realized]

    def detected_ground_truths(self) -> List[AttackGroundTruth]:
        seen = []
        for attack in self.realized_attacks():
            truth = attack.ground_truth
            if truth is not None and truth not in seen:
                seen.append(truth)
        return seen

    def __repr__(self) -> str:
        return "<PipelineResult %s %r attacks=%d/%d realized>" % (
            self.spec.name, self.counters,
            len(self.realized_attacks()), len(self.attacks),
        )


class PipelineConfig(NamedTuple):
    """Everything a pipeline run depends on, as one value.

    - ``jobs`` — worker processes for the parallel stages.
    - ``explore`` — an :class:`repro.owl.explore.ExplorePolicy` (with its
      predict policy) in place of the fixed ``detect_seeds`` sweep.
    - ``profile`` — sample the detector stages' VMs every K scheduler
      decisions.
    - ``item_timeout``/``retries`` — the pooled stages'
      :class:`repro.owl.batch.BatchPolicy` budgets.

    ``run_begin`` logs :meth:`as_dict` and ``owl resume`` rebuilds an
    equal value with :meth:`from_dict`, so a resumed run is the same run.
    """

    jobs: int = 1
    explore: Optional[ExplorePolicy] = None
    profile: Optional[int] = None
    item_timeout: Optional[float] = None
    retries: int = 2

    def as_dict(self) -> Dict:
        return dict(self._asdict(), explore=None if self.explore is None
                    else self.explore.as_dict())

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineConfig":
        explore = data["explore"]
        return cls(**dict(data, explore=None if explore is None
                          else ExplorePolicy.from_dict(explore)))


class OwlPipeline:
    """Runs the five OWL stages against one :class:`ProgramSpec`.

    A run depends on one :class:`PipelineConfig` (``config``; keyword
    settings such as ``jobs=N`` replace its fields) and uses three
    resources beside it: a ``cache``, a ``log`` and a ``replay`` source.

    With ``jobs > 1`` the embarrassingly parallel stages — per-seed
    detection, per-report race verification, per-vulnerability verification
    — fan out over a process pool shared across stages when workers can
    rebuild the spec by registry name, and run in-process otherwise (see
    :mod:`repro.owl.batch`).  The merge is deterministic: the resulting
    :class:`StageCounters` are bit-identical to a serial run on the same
    seeds.  Per-stage wall time and VM throughput are recorded in
    ``result.metrics`` (:class:`repro.runtime.metrics.PipelineMetrics`)
    for both serial and parallel runs.  Every stage runs through the run's
    one :class:`repro.owl.sweep.Sweep`: its pool, cache, batch policy
    (built from ``item_timeout``/``retries``; the metrics ``"batch"``
    block) and span tracer.

    With a ``cache`` (:class:`repro.owl.cache.ResultCache`, any spec)
    every stage item is answered from disk when its content key matches a
    previous run — bit-identical counters and provenance, zero VM
    re-execution for unchanged work.

    An ``explore`` policy (:class:`repro.owl.explore.ExplorePolicy`)
    replaces the detect stages' blind ``detect_seeds`` sweep with
    coverage-guided adaptive budgeting: seeds run in waves until
    interleaving coverage saturates, escalating the schedule family when a
    wave goes dry.  The detect stage's saturation curve lands in the
    metrics JSON (``"explore"`` block) and on ``result.explore``;
    exploration decisions depend only on seed-ordered coverage merges, so
    counters stay job-count invariant.  With a ``predict`` policy
    (:class:`repro.detectors.predict.PredictPolicy`) wave 0 is a predict
    wave (see :mod:`repro.owl.explore`); the prediction lands in the
    metrics ``"predict"`` block and on ``result.predict``, and
    predicted-only reports carry the ``predicted`` disposition.

    A ``replay`` source (:class:`repro.owl.replay.ReplaySource`) swaps
    both detector stages from live execution to deterministic replay of a
    previously recorded sweep: the raw detect stage replays the logs with
    the spec's detector attached, and the annotated re-run replays the
    *same* logs with an annotation-aware detector (annotations only change
    what the observer reports, never the schedule).  Replay bookkeeping
    lands in the metrics JSON (``"replay"`` block); replay is
    mutually exclusive with ``explore``.

    Both detector stages' seed jobs carry the per-seed options
    (:class:`repro.detectors.seed.SeedJob`).  Every VM fuses wherever its
    scheduler commits a run (:mod:`repro.runtime.fuse`), through the one
    engine kept on the program's module, so compiled superinstructions
    amortize across seeds, stages and verifiers.  Fusion never changes
    results — schedules, events, reports and the Table-3 ``parity_dict``
    are bit-identical to stepwise execution — so only steps/s moves; this
    run's share of the module engine's counters lands in the metrics
    ``fuse`` block.

    Every run assembles a deterministic **telemetry snapshot**
    (:mod:`repro.runtime.telemetry`): stage/work counters, per-seed step
    and report histograms, the cache's and batch policy's registries —
    everything job-count invariant — into the
    metrics JSON ``"telemetry"`` block and ``result.telemetry``.
    ``profile=K`` additionally samples the detector stages' VMs every K
    scheduler decisions (:mod:`repro.runtime.profiler`; live runs only —
    off by default, zero overhead when off), merging per-seed profiles in
    seed order into ``result.profile``.  ``log``
    (:class:`repro.owl.runlog.RunLog`) records the run as it executes: the
    config first, then every span of ``result.spans`` (each stage span
    carrying its metrics row), then the outcome — the one event stream
    behind ``owl watch``, ``owl status``, ``owl resume`` and ``owl trace``.
    """

    def __init__(self, spec: ProgramSpec,
                 config: Optional[PipelineConfig] = None, *,
                 cache=None, log=None, replay=None, **settings):
        self.config = (config or PipelineConfig())._replace(**settings)
        if self.config.explore is not None and replay is not None:
            raise ValueError(
                "explore and replay are mutually exclusive: exploration "
                "chooses schedules adaptively, replay re-executes a "
                "recorded sweep verbatim")
        self.spec = spec
        self.cache = cache
        self.log = log
        self.replay = replay
        #: Per-run telemetry registry (rebuilt at the top of :meth:`run`).
        self._registry = None
        self._profiles: List = []
        #: The run's execution context (rebuilt at the top of :meth:`run`).
        self._sweep: Optional[Sweep] = None

    # ------------------------------------------------------------------

    def run(self) -> PipelineResult:
        config = self.config
        jobs = max(1, int(config.jobs)) if can_parallelize(self.spec) else 1
        result = PipelineResult(self.spec)
        result.metrics = PipelineMetrics(self.spec.name, jobs=jobs)
        result.spans = SpanTracer(log=self.log)
        result.provenance = ProvenanceLog(self.spec.name)
        from repro.runtime.telemetry import MetricsRegistry

        self._registry = MetricsRegistry()
        self._profiles = []
        self._options = SeedJob(profile=config.profile or None)
        engine = fuse_engine(self.spec.build())
        fuse_marks = engine.counters()
        log = self.log
        if log is not None:
            log.emit(
                "run_begin", program=self.spec.name,
                cache_dir=self.cache.root if self.cache is not None else None,
                config=config.as_dict(), replay=self.replay is not None,
            )
        executor = make_executor(jobs) if jobs > 1 else None
        policy = BatchPolicy(timeout=config.item_timeout,
                             retries=config.retries)
        self._sweep = Sweep(jobs=jobs, executor=executor, cache=self.cache,
                            policy=policy, tracer=result.spans)
        started = time.perf_counter()
        try:
            with result.spans.span("pipeline", program=self.spec.name):
                self._stage_detect(result)
                self._stage_schedule_reduction(result)
                self._stage_race_verification(result)
                self._stage_vulnerability_analysis(result)
                self._stage_vulnerability_verification(result)
        finally:
            if executor is not None:
                executor.shutdown()
        result.counters.total_seconds = time.perf_counter() - started
        result.metrics.total_seconds = result.counters.total_seconds
        blocks = result.metrics.blocks
        if self.cache is not None:
            blocks["cache"] = self.cache.counters()
        blocks["batch"] = policy.counters()
        if self.replay is not None:
            blocks["replay"] = self.replay.metrics_block()
        blocks["fuse"] = self._fuse_block(result, engine, fuse_marks)
        self._assemble_telemetry(result)
        if log is not None:
            log.emit(
                "run_end", raw_reports=result.counters.raw_reports,
                remaining=result.counters.remaining,
                attacks=len(result.realized_attacks()),
            )
        return result

    # ------------------------------------------------------------------
    # telemetry assembly

    def _assemble_telemetry(self, result: PipelineResult) -> None:
        """Fold every layer's deterministic counters into one snapshot.

        Everything here is job-count invariant — stage work counters,
        Table-3 counters, cache/batch registries (merged in a fixed
        order) — so the snapshot is bit-identical
        between ``jobs=1`` and ``jobs=N`` runs on the same seeds.  Wall
        clock stays out (it lives in the stage metrics).
        """
        registry = self._registry
        for stage in result.metrics.stages:
            prefix = "stage.%s" % stage.name
            registry.counter(prefix + ".items").inc(stage.items)
            registry.counter(prefix + ".runs").inc(stage.runs)
            registry.counter(prefix + ".vm_steps").inc(stage.vm_steps)
            registry.counter(prefix + ".accesses").inc(stage.accesses)
        for name, value in result.counters.parity_dict().items():
            if name != "reduction_ratio":
                registry.counter("pipeline." + name).inc(value)
        registry.counter("pipeline.attacks").inc(len(result.attacks))
        registry.counter("pipeline.attacks_realized").inc(
            len(result.realized_attacks()))
        if result.explore is not None:
            registry.counter("explore.seeds_executed").inc(
                result.explore.seeds_executed)
            registry.counter("explore.waves").inc(len(result.explore.waves))
            registry.gauge("explore.total_pairs").set(
                result.explore.coverage.total_pairs)
        if result.predict is not None:
            for name in ("candidate_pairs", "predicted", "observed",
                         "witnessed", "unwitnessed"):
                registry.counter("predict." + name).inc(
                    result.predict.counters[name])
        if self.cache is not None:
            registry.merge_snapshot(self.cache.registry.snapshot())
        registry.merge_snapshot(self._sweep.policy.registry.snapshot())
        snapshot = registry.snapshot()
        if self._profiles:
            from repro.runtime.profiler import merge_profiles

            result.profile = merge_profiles(self._profiles)
            if result.profile is not None:
                snapshot["profile"] = result.profile.summary()
        result.telemetry = snapshot
        result.metrics.blocks["telemetry"] = snapshot

    @staticmethod
    def _fuse_block(result: PipelineResult, engine, marks: Dict) -> Dict:
        """The metrics ``fuse`` block: this run's deltas of the module
        engine's counters (``marks`` holds them at the start of the run).

        Observational, like steps/s, and job-count dependent — which is
        why these counters stay out of the telemetry registry.  Pooled
        workers fuse through their own process's module, so their compiles
        and fused steps are not visible here; the share then
        under-reports, which is fine for a perf observation (the
        correctness story is the diff oracle's, not this block's).
        ``enabled`` is False under the oracle's stepwise or reference
        switch.
        """
        counters = {name: value - marks[name]
                    for name, value in engine.counters().items()}
        fused_steps = counters["fused_steps"]
        detect_steps = sum(
            stage.vm_steps for stage in result.metrics.stages
            if stage.name in ("detect", "schedule_reduction")
        )
        return {
            "enabled": fusion_enabled(),
            "compiled_blocks": counters["compiled"],
            "fused_runs": counters["fused_runs"],
            "fused_steps": fused_steps,
            "fused_step_share": round(fused_steps / detect_steps, 4)
            if detect_steps else 0.0,
            "skipped_steps": counters["skipped_steps"],
            "bailouts": counters["bailouts"],
            "invalidations": counters["invalidations"],
        }

    # ------------------------------------------------------------------
    # the one stage recorder

    @contextmanager
    def _stage(self, result: PipelineResult, name: str, unit: str):
        """Record one pipeline stage; yields its metrics entry.

        The entry times the body and, with a cache, gains the body's
        ``cache_hits``/``cache_misses`` deltas; a ``stage:<name>`` span
        covers the body and, once it completes, carries the entry's
        counts (the run log's stage row).
        """
        cache = self.cache
        with result.metrics.stage(name, unit=unit) as stage, \
                result.spans.span("stage:" + name) as span:
            marks = (cache.hits, cache.misses) if cache is not None else None
            yield stage
            if marks is not None:
                stage.extra["cache_hits"] = cache.hits - marks[0]
                stage.extra["cache_misses"] = cache.misses - marks[1]
            span.attrs.update(stage.counts())

    # ------------------------------------------------------------------
    # stage 1: concurrency error detection

    def _stage_detect(self, result: PipelineResult) -> None:
        with self._stage(result, "detect", "reports") as stage:
            stats: List = []
            reports = self._run_detector(result, stats)
            stage.absorb_run_stats(stats)
            self._observe_seed_stats(stats)
            stage.items = len(reports)
            self._record_explore(result, stage, primary=True)
        result.raw_reports = reports
        result.counters.raw_reports = len(reports)
        seeds_run = (
            result.explore.seeds_executed if result.explore is not None
            else len(self.spec.detect_seeds)
        )
        for report in reports:
            result.provenance.record(
                report, "detect", "reported",
                detector=report.detector,
                seeds=seeds_run,
            )
            predicted = report.tags.get("predicted")
            if predicted is not None:
                # Invariant 8: a predicted race carries its evidence
                # status — replay-witnessed or explicitly unwitnessed.
                result.provenance.record(
                    report, "predict", "predicted", **predicted)

    def _run_detector(self, result: PipelineResult, stats: List,
                      annotations: Optional[AnnotationSet] = None):
        """One detector stage's sweep: live, or replayed from ``replay``.

        Replay re-runs the same logs with an annotation-aware detector:
        annotations only change what the observer reports, never the
        schedule.
        """
        if self.replay is not None:
            reports, _ = self.replay.run_detector(
                annotations=annotations, stats_out=stats, tracer=result.spans)
            return reports
        runs: List = []
        reports, _ = run_detector(
            self.spec, annotations=annotations, options=self._options,
            sweep=self._sweep, explore=self.config.explore, stats_out=stats,
            runs_out=runs,
        )
        self._profiles.extend(
            run.profile for run in runs if run.profile is not None)
        return reports

    def _observe_seed_stats(self, stats) -> None:
        """Per-seed step/report histograms (deterministic: seed order)."""
        from repro.runtime.telemetry import REPORT_BUCKETS, STEP_BUCKETS

        steps = self._registry.histogram("vm.steps_per_seed", STEP_BUCKETS)
        reports = self._registry.histogram("detect.reports_per_seed",
                                           REPORT_BUCKETS)
        for stat in stats:
            steps.observe(stat.steps)
            reports.observe(stat.reports)

    def _record_explore(self, result: PipelineResult, stage,
                        primary: bool = False) -> None:
        """Fold the latest exploration run into stage extras and metrics.

        ``primary`` marks the raw detect stage, whose saturation curve
        becomes the metrics JSON's top-level ``"explore"`` block
        and ``result.explore``; the annotated re-run only contributes its
        per-stage extras.
        """
        exploration = self._sweep.exploration
        if exploration is None:
            return
        stage.extra["seeds_executed"] = exploration.seeds_executed
        stage.extra["seeds_skipped"] = exploration.seeds_skipped
        stage.extra["saturation_wave"] = exploration.saturation_wave
        stage.extra["explored_pairs"] = exploration.coverage.total_pairs
        if primary:
            result.explore = exploration
            result.metrics.blocks["explore"] = exploration.metrics_block()
            if exploration.predict is not None:
                result.predict = exploration.predict
                result.metrics.blocks["predict"] = (
                    exploration.predict.metrics_block())

    # ------------------------------------------------------------------
    # stage 2: schedule reduction (section 5.1)

    def _stage_schedule_reduction(self, result: PipelineResult) -> None:
        with self._stage(result, "schedule_reduction", "reports") as stage:
            annotations = classify_adhoc(self.spec.build(),
                                         result.raw_reports, self._sweep)
            result.annotations = annotations
            result.counters.adhoc_syncs = annotations.unique_static_count()
            if len(annotations):
                stats: List = []
                reports = self._run_detector(result, stats, annotations)
                stage.absorb_run_stats(stats)
                self._observe_seed_stats(stats)
                self._record_explore(result, stage)
            else:
                reports = result.raw_reports
            stage.items = len(reports)
            stage.extra["adhoc_syncs"] = annotations.unique_static_count()
        result.annotated_reports = reports
        result.counters.after_annotation = len(reports)
        survivors = {report.uid for report in reports}
        for report in result.raw_reports:
            annotation = report.tags.get(AdhocSyncDetector.TAG)
            if annotation is not None:
                result.provenance.record(
                    report, "schedule_reduction", "pruned-adhoc",
                    adhoc_sync=annotation.describe(),
                )
            elif report.uid not in survivors:
                result.provenance.record(
                    report, "schedule_reduction", "eliminated-by-annotation",
                    adhoc_syncs_annotated=annotations.unique_static_count(),
                )
            else:
                result.provenance.record(
                    report, "schedule_reduction", "survived",
                    adhoc_syncs_annotated=annotations.unique_static_count(),
                )

    # ------------------------------------------------------------------
    # stage 3: dynamic race verification (section 5.2)

    def _stage_race_verification(self, result: PipelineResult) -> None:
        with self._stage(result, "race_verification", "reports") as stage:
            result.verifications = verify_races_batch(
                self.spec, result.annotated_reports, self._sweep)
            stage.items = len(result.verifications)
            stage.runs = sum(v.runs_used for v in result.verifications)
            stage.vm_steps = sum(v.vm_steps for v in result.verifications)
            self._registry.counter("race_verify.runs_stopped_early").inc(
                sum(v.runs_stopped_early for v in result.verifications))
        result.remaining_reports = [
            verification.report for verification in result.verifications
            if verification.verified
        ]
        result.counters.verifier_eliminated = (
            result.counters.after_annotation - len(result.remaining_reports)
        )
        result.counters.remaining = len(result.remaining_reports)
        for verification in result.verifications:
            if verification.verified:
                hints = verification.hints
                evidence = {
                    "runs_used": verification.runs_used,
                    "livelocks_resolved": verification.livelocks_resolved,
                }
                if hints is not None:
                    evidence.update(
                        security_hints=hints.describe(),
                        read_value=hints.read_value,
                        write_value=hints.write_value,
                        null_write=hints.null_write,
                    )
                result.provenance.record(
                    verification.report, "race_verification", "verified",
                    **evidence)
            else:
                result.provenance.record(
                    verification.report, "race_verification", "unverified",
                    runs_used=verification.runs_used,
                    reason="never caught in the racing moment",
                )

    # ------------------------------------------------------------------
    # stage 4: static vulnerability analysis (section 6.1)

    def _stage_vulnerability_analysis(self, result: PipelineResult) -> None:
        with self._stage(result, "vulnerability_analysis",
                         "reports") as stage:
            reports = usable_reports(result.remaining_reports)
            analyses = analyze_reports_batch(self.spec.build(), reports,
                                             self._sweep)
            elapsed = 0.0
            vulnerabilities: List[VulnerabilityReport] = []
            for report, (found, budget_exhausted, seconds) in zip(
                    reports, analyses):
                self._record_analysis(result, report, found,
                                      budget_exhausted)
                vulnerabilities.extend(found)
                elapsed += seconds
            result.vulnerabilities = self._dedup(vulnerabilities)
            stage.items = len(reports)
            stage.extra["vulnerability_reports"] = len(result.vulnerabilities)
        result.counters.vulnerability_reports = len(result.vulnerabilities)
        result.counters.analysis_seconds_per_report = (
            elapsed / len(reports) if reports else 0.0
        )

    @staticmethod
    def _record_analysis(result: PipelineResult, report: RaceReport,
                         found: List[VulnerabilityReport],
                         budget_exhausted: bool) -> None:
        """Provenance for one analyzed report."""
        for vulnerability in found:
            result.provenance.record(
                report, "vulnerability_analysis", "site-reached",
                site=str(vulnerability.site.location),
                site_type=vulnerability.site_type.value,
                dependence=vulnerability.kind.value,
                corrupted_branches=[
                    str(branch.location)
                    for branch in vulnerability.branches
                ],
            )
        if not found:
            result.provenance.record(
                report, "vulnerability_analysis", "no-vulnerable-site",
                budget_exhausted=budget_exhausted,
            )

    @staticmethod
    def _dedup(vulnerabilities: List[VulnerabilityReport]) -> List[VulnerabilityReport]:
        seen = {}
        for vulnerability in vulnerabilities:
            seen.setdefault(vulnerability.dedup_key, vulnerability)
        return list(seen.values())

    # ------------------------------------------------------------------
    # stage 5: dynamic vulnerability verification (section 6.2)

    def _stage_vulnerability_verification(self,
                                          result: PipelineResult) -> None:
        with self._stage(result, "vulnerability_verification",
                         "vulnerabilities") as stage:
            pairs = verify_vulns_batch(
                self.spec, result.vulnerabilities, self._sweep)
            for vulnerability, (verification, ground_truth) in zip(
                    result.vulnerabilities, pairs):
                result.attacks.append(
                    DetectedAttack(vulnerability, verification, ground_truth)
                )
                if vulnerability.source is None:
                    continue
                verdict = (
                    "attack-realized" if verification.attack_realized
                    else "attack-not-realized"
                )
                evidence = {
                    "outcome": verification.describe(),
                    "site_reached": verification.site_reached,
                    "runs_used": verification.runs_used,
                    "faults": [kind.value
                               for kind in verification.fault_kinds],
                }
                if ground_truth is not None:
                    evidence["ground_truth"] = ground_truth.attack_id
                result.provenance.record(
                    vulnerability.source, "vulnerability_verification",
                    verdict, **evidence)
            stage.items = len(pairs)
            stage.runs = sum(
                verification.runs_used for verification, _ in pairs
            )
            stage.vm_steps = sum(
                verification.vm_steps for verification, _ in pairs
            )
