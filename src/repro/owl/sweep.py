"""The seed-sweep driver: one detector over many schedules (paper §6.3).

:func:`run_sweep` runs a base :class:`repro.detectors.seed.SeedJob` over
many seeds, or over coverage-guided waves (:mod:`repro.owl.explore`).
Each seed is one stage item (:mod:`repro.owl.batch`): its job is the
payload, :func:`seed_item` runs it, and :meth:`Sweep.run` rehydrates the
output into a :class:`repro.detectors.seed.SeedRun` against the caller's
module.  :meth:`Sweep.map` runs the items of every cached unit of work —
detector seeds and the predict wave, the adhoc classification, both
verifications, Algorithm 1 and ``owl fix``'s gates — answered from the
cache, in-process, or in the pool; :meth:`Sweep.keys` makes their cache
keys.  This module and :mod:`repro.owl.batch` are the only code that
reads or writes the cache.

Runs come back in seed order, so reports, stats, coverage and spans
(with the run-log events they write) are identical at any job count.
Cache keys are :meth:`SeedJob.key_parts`, so no seed option can be left
out of one.  The pool needs a job ``source`` workers can rebuild the
module from; the cache works for every job.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detectors.report import ReportSet
from repro.detectors.seed import SeedJob, SeedRun, run_seed
from repro.owl import batch
from repro.runtime.spans import SpanTracer


class Sweep:
    """Where a run's stage items run, and who watches them.

    ``jobs``/``executor`` size (or supply) the process pool, ``cache``
    (:class:`repro.owl.cache.ResultCache`) answers already-computed items
    from disk, ``policy`` (:class:`repro.owl.batch.BatchPolicy`) bounds
    each pooled item's wait and retries, and ``tracer`` collects one span
    per item (a cached item's is a marker).  A pipeline run holds one
    sweep, and every stage runs its items through it
    (:func:`repro.owl.batch.classify_adhoc`,
    :func:`repro.owl.batch.verify_races_batch`,
    :func:`repro.owl.batch.analyze_reports_batch`,
    :func:`repro.owl.batch.verify_vulns_batch`); ``owl fix`` gates through
    one of its own (:func:`repro.owl.repair.repair_program`).
    """

    def __init__(self, jobs: int = 1, executor=None, cache=None, policy=None,
                 tracer: Optional[SpanTracer] = None):
        self.jobs = max(1, int(jobs or 1))
        self.executor = executor
        self.cache = cache
        self.policy = policy
        self.tracer = tracer
        #: The :class:`repro.owl.explore.ExplorationResult` of the latest
        #: exploring sweep run through this context.
        self.exploration = None

    def keys(self, stage: str, module,
             parts: Sequence[Dict]) -> Optional[List[str]]:
        """Each item's cache key from its key parts; None without a cache."""
        if self.cache is None:
            return None
        return [self.cache.key(stage, module=module, **part)
                for part in parts]

    def map(self, stage: str, item, payloads: Sequence, keys, finish,
            rebuildable: bool, **local) -> List:
        """Run one stage's items; ``finish(index, output)`` turns each
        output into the stage's result, in payload order.

        ``item(payload, tracer, **local)`` computes one output; ``keys``
        (:meth:`keys`, None without a cache) key each payload's output.
        With a pool (``jobs > 1`` or an executor) and ``rebuildable``
        payloads, misses run there as ``item(payload, tracer)``,
        rebuilding what ``local`` would have supplied from the payload.
        Otherwise each item runs in-process on ``local`` with this sweep's
        tracer, just before it is finished, so live spans and cache-hit
        markers land in payload order.  ``local`` is what in-process items
        share with the caller: its spec or module, and memos an item's
        output never depends on — race verification's trunks
        (:class:`repro.owl.race_verifier.Trunk`), Algorithm 1's analyzer,
        a repair candidate's gate verdicts.
        """
        if not payloads:
            return []
        if rebuildable and (self.jobs > 1 or self.executor is not None):
            outputs = batch.run_cached_tasks(
                functools.partial(batch.in_worker, item), payloads,
                cache=self.cache, stage=stage, keys=keys, jobs=self.jobs,
                executor=self.executor, policy=self.policy)
        else:
            outputs = self._in_process(stage, item, payloads, keys, local)
        return [finish(index, output) for index, output in enumerate(outputs)]

    def _in_process(self, stage: str, item, payloads: Sequence, keys,
                    local: Dict):
        """Each item's output when it is needed: a cache hit, or the item
        run here (and stored)."""
        for index, payload in enumerate(payloads):
            key = keys[index] if keys is not None else None
            output = batch.cached_output(self.cache, stage, key)
            if output is None:
                output = item(payload, self.tracer, **local)
                batch.store_output(self.cache, stage, key, output)
            yield output

    def run(self, module, seed_jobs: Sequence[SeedJob]) -> List[SeedRun]:
        """Run every job (one sweep's options), results in job order.

        Recording jobs go through the cache only when *both* their
        ``detect`` and ``record`` entries exist: a job whose log is
        missing re-executes (re-warming both stages), so record mode always
        returns a complete log set while the ``detect`` entry stays
        byte-identical to a plain run's.
        """
        seed_jobs = list(seed_jobs)
        if not seed_jobs:
            return []
        parts = [job.key_parts() for job in seed_jobs]
        keys = detect_keys = self.keys("detect", module, parts)
        logs = record_keys = None
        if keys is not None and seed_jobs[0].record:
            record_keys = self.keys("record", module, parts)
            logs = [self.cache.get("record", key) for key in record_keys]
            keys = [key if log is not None else None
                    for key, log in zip(keys, logs)]

        def finish(index: int, output: Dict) -> SeedRun:
            if logs is not None:
                if logs[index] is None:  # ran unkeyed: warm both stages
                    batch.store_output(self.cache, "detect",
                                       detect_keys[index], output)
                    self.cache.put("record", record_keys[index],
                                   output["log"])
                else:
                    output.setdefault("log", logs[index])
            return seed_run(module, seed_jobs[index], output, self.tracer)

        return self.map("detect", seed_item, seed_jobs, keys, finish,
                        rebuildable=seed_jobs[0].source is not None,
                        module=module)


def seed_run(module, job: SeedJob, output: Dict,
             tracer: Optional[SpanTracer]) -> SeedRun:
    """Rehydrate one seed item's output on ``module`` and fold its spans
    into ``tracer``; a cached run's ``detect_seed`` marker carries the
    attrs :func:`repro.detectors.seed.run_seed` gives the live span."""
    run = SeedRun.from_payload(module, job, output,
                               cached=bool(output.get("cached")))
    stats = run.stats
    batch.adopt_spans(tracer, output, "detect_seed", seed=job.seed,
                      detector=job.kind, steps=stats.steps,
                      reason=stats.reason, reports=stats.reports)
    return run


def seed_item(job: SeedJob, tracer: Optional[SpanTracer] = None,
              module=None) -> Dict:
    """Run one job; its results as a payload.  ``module`` is the caller's
    in-process; a worker resolves ``job.source``."""
    return run_seed(job, module=module, tracer=tracer).to_payload()


def merge_runs(runs: Sequence[SeedRun]) -> ReportSet:
    """The runs' reports merged in run order (static dedup)."""
    merged = ReportSet()
    for run in runs:
        merged.merge(run.reports)
    return merged


def run_sweep(
    module,
    base: SeedJob,
    seeds: Sequence[int] = (),
    sweep: Optional[Sweep] = None,
    explore=None,
    world_factory=None,
) -> Tuple[ReportSet, List[SeedRun]]:
    """Run ``base`` over ``seeds`` on ``module``; merged reports + runs.

    With an ``explore`` policy (:class:`repro.owl.explore.ExplorePolicy`)
    the seeds come from coverage-guided exploration instead (``seeds`` is
    ignored; ``world_factory`` builds the OS world for a predict wave's
    witness replays), whose result lands on ``sweep.exploration``.
    ``sweep`` defaults to an in-process, uncached one.
    """
    sweep = sweep if sweep is not None else Sweep()
    if explore is not None:
        from repro.owl.explore import explore_seeds

        return explore_seeds(module, base, sweep, explore,
                             world_factory=world_factory)
    runs = sweep.run(module, [base.replace(seed=seed) for seed in seeds])
    return merge_runs(runs), runs
