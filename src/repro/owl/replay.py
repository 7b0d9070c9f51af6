"""First-class replay through the OWL pipeline.

Gluing :mod:`repro.runtime.record` to the pipeline stages: record a spec's
detect-seed sweep once (bare VMs, near reference speed — no detector
attached), then re-derive detector evidence offline by *replaying* the
logs with any detector attached, as many times as needed.  The pipeline's
two detector stages (raw detect, annotated re-run after schedule
reduction) both work this way under ``OwlPipeline(replay=...)``: the
annotated re-run replays the *same* logs with an annotation-aware
detector, because adhoc-sync annotations only change what the observer
reports, never the schedule.

Logs live one JSON-lines file per seed under a record directory
(``benchmarks/out/records/<program>/`` by default), written by
:func:`record_program` / ``owl record`` and consumed by
:func:`load_recorded_logs` / ``owl replay`` / ``owl explain --replay``.
Replay bookkeeping (how many replays ran, how many decisions they
consumed, every divergence counter) is exposed by
:meth:`ReplaySource.metrics_block` as the metrics JSON's ``replay``
block.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detectors.annotations import AnnotationSet
from repro.detectors.predict import (
    PredictionResult,
    PredictPolicy,
    predict_from_log,
)
from repro.detectors.report import ReportSet
from repro.detectors.seed import DETECTORS, SeedJob, make_scheduler
from repro.runtime.metrics import RunStats
from repro.runtime.record import (
    ScheduleLog,
    record_seed,
    replay_log,
)
from repro.spec import ProgramSpec

DEFAULT_RECORD_DIR = os.path.join("benchmarks", "out", "records")


def default_record_dir(program: str,
                       root: str = DEFAULT_RECORD_DIR) -> str:
    return os.path.join(root, program)


def log_path(record_dir: str, program: str, seed: int) -> str:
    return os.path.join(record_dir, "%s_seed%04d.jsonl" % (program, seed))


def discover_seeds(record_dir: str, program: str) -> List[int]:
    """Seeds with a recorded log under ``record_dir``, in seed order."""
    prefix = "%s_seed" % program
    seeds: List[int] = []
    if not os.path.isdir(record_dir):
        return seeds
    for name in os.listdir(record_dir):
        if name.startswith(prefix) and name.endswith(".jsonl"):
            digits = name[len(prefix):-len(".jsonl")]
            if digits.isdigit():
                seeds.append(int(digits))
    return sorted(seeds)


def _spec_world(spec: ProgramSpec):
    return spec.initial_world() if spec.initial_world is not None else None


def record_spec_seed(spec: ProgramSpec, module, seed: int,
                     fingerprint: bool = False):
    """Record one bare (detector-free) execution of ``spec``.

    Runs under the schedule family the spec's live detector uses, so a
    replay with the detector attached observes exactly the event stream
    the live detect stage would; returns ``record_seed``'s
    ``(log, result, fingerprint)``.
    """
    scheduler = make_scheduler(SeedJob(kind=spec.detector, seed=seed))
    return record_seed(
        module, seed, entry=spec.entry, inputs=spec.workload_inputs,
        max_steps=spec.max_steps, scheduler=scheduler,
        scheduler_label=type(scheduler).__name__, world=_spec_world(spec),
        program=spec.name, fingerprint=fingerprint,
    )


def record_program(
    spec: ProgramSpec,
    seeds: Optional[Sequence[int]] = None,
    out_dir: Optional[str] = None,
    fingerprint: bool = False,
) -> "ReplaySource":
    """Record a spec's seed sweep as bare (detector-free) executions.

    Each seed runs once under the schedule family the spec's live
    detector would use (RandomScheduler for TSan specs, PCT for SKI
    specs), so a later replay with the detector attached observes exactly
    the event stream the live detect stage would have.  With ``out_dir``
    every log is saved as one JSON-lines file.  ``fingerprint=True``
    additionally captures per-seed ``"recorded"``-mode fingerprints for
    the diffcheck oracle (``ReplaySource.fingerprints``).
    """
    seeds = list(seeds if seeds is not None else spec.detect_seeds)
    module = spec.build()
    logs: List[ScheduleLog] = []
    fingerprints: List = []
    record_stats: List[RunStats] = []
    for seed in seeds:
        started = time.perf_counter()
        log, result, recorded = record_spec_seed(
            spec, module, seed, fingerprint=fingerprint)
        logs.append(log)
        record_stats.append(RunStats(
            seed=seed, reason=result.reason, steps=result.steps,
            accesses=0, reports=0,
            wall_seconds=time.perf_counter() - started,
        ))
        if fingerprint:
            fingerprints.append(recorded)
        if out_dir is not None:
            log.save(log_path(out_dir, spec.name, seed))
    source = ReplaySource(spec, logs, record_dir=out_dir)
    source.fingerprints = fingerprints
    source.record_stats = record_stats
    return source


def load_recorded_logs(
    spec: ProgramSpec,
    record_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
) -> "ReplaySource":
    """Load a previously recorded sweep from its JSON-lines files."""
    record_dir = record_dir or default_record_dir(spec.name)
    seeds = list(seeds if seeds is not None else spec.detect_seeds)
    logs: List[ScheduleLog] = []
    for seed in seeds:
        path = log_path(record_dir, spec.name, seed)
        if not os.path.exists(path):
            raise FileNotFoundError(
                "no recorded log for %s seed %d at %s (run `owl record %s` "
                "first)" % (spec.name, seed, path, spec.name))
        logs.append(ScheduleLog.load(path))
    return ReplaySource(spec, logs, record_dir=record_dir)


class ReplaySource:
    """A recorded sweep, replayable through the pipeline's detector stages.

    Accumulates replay bookkeeping across every :meth:`run_detector` call
    (the pipeline replays the sweep twice: raw detect plus the annotated
    re-run), surfaced as the metrics ``replay`` block.
    """

    def __init__(self, spec: ProgramSpec, logs: Sequence[ScheduleLog],
                 record_dir: Optional[str] = None):
        self.spec = spec
        self.logs: List[ScheduleLog] = list(logs)
        self.record_dir = record_dir
        #: per-seed ``"recorded"``-mode fingerprints (record_program only)
        self.fingerprints: List = []
        #: per-seed recording stats (record_program only)
        self.record_stats: List[RunStats] = []
        self.replays = 0
        self.schedule_divergences = 0
        self.sync_divergences = 0
        self.thread_divergences = 0
        self.unfaithful_replays = 0

    def run_detector(
        self,
        annotations=None,
        stats_out: Optional[List] = None,
        tracer=None,
    ) -> Tuple[ReportSet, List[RunStats]]:
        """Replay every log with the spec's detector attached.

        Reports are merged in seed order — the same contract as
        :func:`repro.owl.integration.run_detector`, which this substitutes
        for under ``OwlPipeline(replay=...)``.  Any divergence is counted
        (never silently absorbed); a log recorded against a different IR
        digest raises :class:`repro.runtime.record.ReplayMismatch`.
        """
        from repro.runtime.spans import maybe_span

        detector_cls = DETECTORS[self.spec.detector]
        module = self.spec.build()
        merged = ReportSet()
        stats: List[RunStats] = []
        for log in self.logs:
            detector = detector_cls(annotations=annotations,
                                    reports=ReportSet())
            with maybe_span(tracer, "replay_seed", seed=log.seed,
                            detector=detector_cls.name) as span:
                outcome = replay_log(
                    module, log, observers=[detector],
                    inputs=self.spec.workload_inputs,
                    world=_spec_world(self.spec),
                )
                if span is not None:
                    span.attrs.update(
                        steps=outcome.result.steps,
                        reports=len(detector.reports),
                        faithful=outcome.faithful,
                    )
            self.replays += 1
            self.schedule_divergences += outcome.schedule_divergences
            self.sync_divergences += outcome.sync_divergences
            self.thread_divergences += outcome.thread_divergences
            if not outcome.faithful:
                self.unfaithful_replays += 1
            merged.merge(detector.reports)
            stats.append(RunStats(
                seed=log.seed, reason=outcome.result.reason,
                steps=outcome.result.steps,
                accesses=detector.access_count,
                reports=len(detector.reports),
                wall_seconds=outcome.wall_seconds,
            ))
        if stats_out is not None:
            stats_out.extend(stats)
        return merged, stats

    @property
    def total_divergences(self) -> int:
        return (self.schedule_divergences + self.sync_divergences
                + self.thread_divergences)

    def metrics_block(self) -> Dict:
        """The metrics JSON ``replay`` block."""
        return {
            "logs": len(self.logs),
            "decisions": sum(log.decisions for log in self.logs),
            "record_dir": self.record_dir,
            "replays": self.replays,
            "schedule_divergences": self.schedule_divergences,
            "sync_divergences": self.sync_divergences,
            "thread_divergences": self.thread_divergences,
            "unfaithful_replays": self.unfaithful_replays,
        }

    def __repr__(self) -> str:
        return "<ReplaySource %s logs=%d replays=%d divergences=%d>" % (
            self.spec.name, len(self.logs), self.replays,
            self.total_divergences,
        )


def predict_program(
    spec,
    seed: int = 0,
    annotations: Optional[AnnotationSet] = None,
    policy: Optional[PredictPolicy] = None,
    log=None,
    record_dir: Optional[str] = None,
) -> PredictionResult:
    """Predict from one recorded execution of a :class:`ProgramSpec`.

    Loads the seed's log from ``record_dir`` when one exists (``owl
    record`` output), otherwise records a fresh execution under the
    schedule family the spec's live detector would use — and saves it to
    ``record_dir`` when given, so the next prediction is replay-only.
    """
    module = spec.build()
    path = (log_path(record_dir, spec.name, seed)
            if record_dir is not None else None)
    if log is None and path is not None and os.path.exists(path):
        log = ScheduleLog.load(path)
    if log is None:
        log, _result, _ = record_spec_seed(spec, module, seed)
        if path is not None:
            log.save(path)
    return predict_from_log(
        module, log, annotations=annotations, inputs=spec.workload_inputs,
        world_factory=lambda: _spec_world(spec), policy=policy,
    )
