"""Concurrency-bug detectors: the front end of the OWL pipeline.

- :mod:`repro.detectors.tsan` — a happens-before (vector clock) data race
  detector in the spirit of ThreadSanitizer, used for application programs.
- :mod:`repro.detectors.ski` — a systematic schedule explorer in the spirit
  of SKI, used for kernel-style programs, with the paper's section 6.3
  modified report policy (corrupted-address watch list; every subsequent
  read's call stack is captured, writes sanitize).
- :mod:`repro.detectors.lockset` — an Eraser-style lockset detector kept as
  a baseline comparator (more false positives than happens-before).
- :mod:`repro.detectors.predict` — a predictive detector: from one recorded
  execution, the sync-preserving closure decides which conflicting access
  pairs a reordered-but-sync-consistent schedule could co-enable, each
  prediction witness-replayed or explicitly marked unwitnessed.
- :mod:`repro.detectors.seed` — :class:`SeedJob`, one detector execution
  as a frozen value, and :func:`run_seed`, which executes it.
- :mod:`repro.detectors.annotations` — TSan-markup-style annotations that
  OWL's adhoc-synchronization stage applies to suppress benign schedules.
- :mod:`repro.detectors.report` — race report data structures shared by all
  detectors and consumed by OWL.
"""

from repro.detectors.report import AccessRecord, RaceReport, ReportSet
from repro.detectors.vectorclock import VectorClock
from repro.detectors.annotations import AnnotationSet
from repro.detectors.tsan import TSanDetector, run_tsan
from repro.detectors.lockset import LocksetDetector
from repro.detectors.ski import SkiDetector, run_ski
from repro.detectors.atomicity import AtomicityDetector, run_atomicity
from repro.detectors.predict import (
    PredictPolicy,
    PredictionResult,
    predict_from_log,
)
from repro.detectors.seed import SeedJob, SeedRun, run_seed

__all__ = [
    "AccessRecord",
    "RaceReport",
    "ReportSet",
    "VectorClock",
    "AnnotationSet",
    "TSanDetector",
    "run_tsan",
    "LocksetDetector",
    "SkiDetector",
    "run_ski",
    "AtomicityDetector",
    "run_atomicity",
    "PredictPolicy",
    "PredictionResult",
    "predict_from_log",
    "SeedJob",
    "SeedRun",
    "run_seed",
]
