"""Detector integration (paper section 6.3).

OWL integrates two race detector front ends: TSan for applications and SKI
for kernels.  The contract Algorithm 1 needs from either is (a) a *load*
instruction reading the corrupted memory and (b) that instruction's call
stack.  Both requirements are satisfied here:

- the shared happens-before engine already watches corrupted addresses and
  records subsequent reads with full call stacks (the modified SKI policy);
- :func:`usable_reports` filters to reports that can supply a load, which is
  the "we modified the detectors to add the first load instruction for these
  reports" behaviour for write-write races.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.detectors.annotations import AnnotationSet, annotations_to_payload
from repro.detectors.report import RaceReport, ReportSet
from repro.detectors.seed import SeedJob
from repro.owl.sweep import Sweep, run_sweep
from repro.spec import ProgramSpec


def spec_job(spec: ProgramSpec, annotations: Optional[AnnotationSet] = None,
             options: Optional[SeedJob] = None) -> SeedJob:
    """The base :class:`SeedJob` of a spec's detector sweep.

    ``options`` carries the per-seed options (record, coverage,
    profile); the spec supplies everything else.  The job's source is the
    spec's registry name when workers can rebuild it (otherwise its seeds
    run in-process; the cache works either way).
    """
    from repro.owl.batch import can_parallelize

    return (options or SeedJob()).replace(
        source=spec.name if can_parallelize(spec) else None,
        kind=spec.detector, entry=spec.entry, inputs=spec.workload_inputs,
        max_steps=spec.max_steps,
        annotations=annotations_to_payload(annotations),
    )


def run_detector(
    spec: ProgramSpec,
    annotations: Optional[AnnotationSet] = None,
    options: Optional[SeedJob] = None,
    sweep: Optional[Sweep] = None,
    explore=None,
    stats_out: Optional[List] = None,
    runs_out: Optional[List] = None,
) -> Tuple[ReportSet, List]:
    """Run the spec's front-end detector over its configured schedules.

    The seed jobs come from :func:`spec_job` (``options`` holds the
    per-seed options) and run through the sweep driver
    (:func:`repro.owl.sweep.run_sweep`): ``sweep`` says where — in-process
    and uncached by default, pooled and/or cached per its settings — and
    reports merge in seed order, so the result is identical at any job
    count.  An
    ``explore`` policy (:class:`repro.owl.explore.ExplorePolicy`) replaces
    the spec's fixed ``detect_seeds`` with coverage-guided exploration;
    its :class:`ExplorationResult` lands on ``sweep.exploration``.

    Returns ``(reports, stats)`` with one
    :class:`repro.runtime.metrics.RunStats` per executed seed, whatever
    the strategy; ``stats_out`` receives the same stats and ``runs_out``
    the full :class:`repro.detectors.seed.SeedRun` of each seed (coverage,
    logs, profiles).
    """
    reports, runs = run_sweep(
        spec.build(), spec_job(spec, annotations, options), spec.detect_seeds,
        sweep=sweep, explore=explore, world_factory=spec.initial_world,
    )
    stats = [run.stats for run in runs]
    if stats_out is not None:
        stats_out.extend(stats)
    if runs_out is not None:
        runs_out.extend(runs)
    return reports, stats


def usable_reports(reports) -> List[RaceReport]:
    """Reports that satisfy Algorithm 1's input contract (a racy load)."""
    return [report for report in reports if report.read_access() is not None]
