"""The seed-sweep driver: one detector over many schedules (paper §6.3).

:func:`run_sweep` runs a base :class:`repro.detectors.seed.SeedJob` over
many seeds; the :class:`Sweep` context picks the strategy:

- **serial** — in-process on the caller's module, no payload round trip;
- **pool** — jobs are the worker payloads of
  :func:`repro.owl.batch.run_cached_tasks` (a pool when ``jobs > 1`` or an
  executor is given; the result cache at any job count);
- **explore** — coverage-guided waves (:mod:`repro.owl.explore`), each run
  by one of the above.

Runs come back in seed order, so reports, stats, coverage and spans
(with the run-log events they write) are identical at any job count.
Cache keys are :meth:`SeedJob.key_parts`, so no seed option can be left
out of one.  Pooling and caching need a job ``source`` workers can
rebuild the module from; jobs without one run serially, uncached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.detectors.report import ReportSet
from repro.detectors.seed import SeedJob, SeedRun, run_seed
from repro.owl import batch
from repro.runtime.spans import SpanTracer


class Sweep:
    """Where a sweep's jobs run, and who watches them.

    ``jobs``/``executor`` size (or supply) the process pool, ``cache``
    (:class:`repro.owl.cache.ResultCache`) answers already-computed jobs
    from disk, ``policy`` (:class:`repro.owl.batch.BatchPolicy`) bounds
    each pooled item's wait and retries, and ``tracer`` collects one
    ``detect_seed`` span per job (a cached job's is a marker).  A pipeline
    run holds one sweep, and its verification stages run through the
    same context (:func:`repro.owl.batch.verify_races_batch`,
    :func:`repro.owl.batch.verify_vulns_batch`).
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

    def cache_for(self, job: SeedJob):
        """The cache, when ``job`` can be keyed (it has a rebuildable source)."""
        return self.cache if job.source is not None else None

    def pooled(self, rebuildable: bool) -> bool:
        """Whether work goes through worker payloads (a pool, the cache, or
        both); only work whose module workers can rebuild may."""
        return rebuildable and (
            self.jobs > 1 or self.executor is not None
            or self.cache is not None)

    def tasks(self, worker, payloads: Sequence, stage: str,
              keys: Optional[Sequence[str]] = None) -> List[Dict]:
        """:func:`repro.owl.batch.run_cached_tasks` in this context; cached
        only when ``keys`` are given."""
        return batch.run_cached_tasks(
            worker, payloads, cache=self.cache, stage=stage, keys=keys,
            jobs=self.jobs, executor=self.executor, policy=self.policy,
        )

    def key(self, stage: str, module, job: SeedJob, **extra) -> str:
        """The cache key of ``job``'s result in ``stage``."""
        return self.cache.key(stage, module=module, **job.key_parts(), **extra)

    def run(self, module, seed_jobs: Sequence[SeedJob]) -> List[SeedRun]:
        """Run every job (one sweep's options), results in job order."""
        seed_jobs = list(seed_jobs)
        if not seed_jobs:
            return []
        if self.pooled(seed_jobs[0].source is not None):
            return self._run_pooled(module, seed_jobs)
        return [run_seed(job, module=module, tracer=self.tracer)
                for job in seed_jobs]

    # ------------------------------------------------------------------
    # the pool strategy

    def _run_pooled(self, module, seed_jobs: List[SeedJob]) -> List[SeedRun]:
        """Fan the jobs out; rehydrate the outputs against ``module``.

        Recording jobs go through the cache only when *both* their
        ``detect`` and ``record`` entries exist: a job whose log is
        missing re-executes (re-warming both stages), so record mode always
        returns a complete log set while the ``detect`` entry stays
        byte-identical to a plain run's.
        """
        cache = self.cache
        keys = ([self.key("detect", module, job) for job in seed_jobs]
                if cache is not None else None)
        if cache is None or not seed_jobs[0].record:
            outputs = self.tasks(_seed_worker, seed_jobs, "detect", keys)
        else:
            record_keys = [self.key("record", module, job)
                           for job in seed_jobs]
            logs = [cache.get("record", key) for key in record_keys]
            outputs: List[Optional[Dict]] = [None] * len(seed_jobs)
            hits = [i for i, log in enumerate(logs) if log is not None]
            live = [i for i, log in enumerate(logs) if log is None]
            if hits:
                found = self.tasks(_seed_worker,
                                   [seed_jobs[i] for i in hits], "detect",
                                   [keys[i] for i in hits])
                for index, output in zip(hits, found):
                    output.setdefault("log", logs[index])
                    outputs[index] = output
            if live:
                fresh = self.tasks(_seed_worker,
                                   [seed_jobs[i] for i in live], "detect")
                for index, output in zip(live, fresh):
                    outputs[index] = output
                    cache.put("detect", keys[index], batch._cacheable(output))
                    cache.put("record", record_keys[index], output["log"])
        runs = [SeedRun.from_payload(module, job, output,
                                     cached=bool(output.get("cached")))
                for job, output in zip(seed_jobs, outputs)]
        for run, output in zip(runs, outputs):
            batch.adopt_spans(self.tracer, output, "detect_seed",
                              **seed_span_attrs(run))
        return runs


def seed_span_attrs(run: SeedRun) -> Dict:
    """The attrs :func:`repro.detectors.seed.run_seed` gives a job's
    ``detect_seed`` span: a cached run's marker carries them too."""
    stats = run.stats
    return {"seed": run.job.seed, "detector": run.job.kind,
            "steps": stats.steps, "reason": stats.reason,
            "reports": stats.reports}


def _seed_worker(job: SeedJob) -> Dict:
    """Run one job in a worker; its results as a picklable payload."""
    tracer = SpanTracer()
    output = run_seed(job, tracer=tracer).to_payload()
    output["spans"] = tracer.export_payload()
    return output


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
    ``sweep`` defaults to a serial, uncached one.
    """
    sweep = sweep if sweep is not None else Sweep()
    if explore is not None:
        from repro.owl.explore import explore_seeds

        return explore_seeds(module, base, sweep, explore,
                             world_factory=world_factory)
    runs = sweep.run(module, [base.replace(seed=seed) for seed in seeds])
    return merge_runs(runs), runs
