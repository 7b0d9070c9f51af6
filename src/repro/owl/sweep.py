"""The seed-sweep driver: one detector over many schedules (paper §6.3).

:func:`run_sweep` runs a base :class:`repro.detectors.seed.SeedJob` over
many seeds; the :class:`Sweep` context picks the strategy:

- **serial** — in-process on the caller's module, no payload round trip;
- **pool** — jobs are the worker payloads of
  :func:`repro.owl.batch.run_cached_tasks` (a pool when ``jobs > 1`` or an
  executor is given; the result cache at any job count);
- **explore** — coverage-guided waves (:mod:`repro.owl.explore`), each run
  by one of the above.

Runs come back in seed order, so reports, stats, coverage, spans and
run-log events are identical at any job count.  Cache keys are
:meth:`SeedJob.key_parts`, so no seed option can be left out of one.
Pooling and caching need a job ``source`` workers can rebuild the module
from; jobs without one run serially, uncached.
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
    each pooled item's wait and retries, ``tracer`` collects one
    ``detect_seed`` span per execution, and ``log``
    (:class:`repro.owl.runlog.RunLog`) receives one ``seed_done`` event
    per job.
    """

    def __init__(self, jobs: int = 1, executor=None, cache=None, policy=None,
                 tracer: Optional[SpanTracer] = None, log=None):
        self.jobs = max(1, int(jobs or 1))
        self.executor = executor
        self.cache = cache
        self.policy = policy
        self.tracer = tracer
        self.log = log

    def cache_for(self, job: SeedJob):
        """The cache, when ``job`` can be keyed (it has a rebuildable source)."""
        return self.cache if job.source is not None else None

    def pooled(self, job: SeedJob) -> bool:
        return job.source is not None and (
            self.jobs > 1 or self.executor is not None
            or self.cache is not None)

    def key(self, stage: str, module, job: SeedJob, **extra) -> str:
        """The cache key of ``job``'s result in ``stage``."""
        return self.cache.key(stage, module=module, **job.key_parts(), **extra)

    def run(self, module, seed_jobs: Sequence[SeedJob]) -> List[SeedRun]:
        """Run every job (one sweep's options), results in job order."""
        seed_jobs = list(seed_jobs)
        if not seed_jobs:
            return []
        if self.pooled(seed_jobs[0]):
            return self._run_pooled(module, seed_jobs)
        runs = []
        for job in seed_jobs:
            run = run_seed(job, module=module, tracer=self.tracer)
            self.announce(run)
            runs.append(run)
        return runs

    def announce(self, run: SeedRun) -> None:
        """The log's ``seed_done`` event for one finished job."""
        if self.log is not None:
            self.log.emit("seed_done", stage="detect", seed=run.job.seed,
                          detector=run.job.kind, steps=run.stats.steps,
                          reports=run.stats.reports, cached=run.cached)

    # ------------------------------------------------------------------
    # the pool strategy

    def _tasks(self, seed_jobs, cache=None, keys=None) -> List[Dict]:
        return batch.run_cached_tasks(
            _seed_worker, seed_jobs, cache=cache, stage="detect", keys=keys,
            jobs=self.jobs, executor=self.executor, policy=self.policy,
        )

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
            outputs = self._tasks(seed_jobs, cache=cache, keys=keys)
        else:
            record_keys = [self.key("record", module, job)
                           for job in seed_jobs]
            logs = [cache.get("record", key) for key in record_keys]
            outputs: List[Optional[Dict]] = [None] * len(seed_jobs)
            hits = [i for i, log in enumerate(logs) if log is not None]
            live = [i for i, log in enumerate(logs) if log is None]
            if hits:
                found = self._tasks([seed_jobs[i] for i in hits], cache=cache,
                                    keys=[keys[i] for i in hits])
                for index, output in zip(hits, found):
                    output.setdefault("log", logs[index])
                    outputs[index] = output
            if live:
                fresh = self._tasks([seed_jobs[i] for i in live])
                for index, output in zip(live, fresh):
                    outputs[index] = output
                    cache.put("detect", keys[index], batch._cacheable(output))
                    cache.put("record", record_keys[index], output["log"])
        runs = [SeedRun.from_payload(module, job, output,
                                     cached=bool(output.get("cached")))
                for job, output in zip(seed_jobs, outputs)]
        for run, output in zip(runs, outputs):
            self.announce(run)
            batch.adopt_spans(self.tracer, output, "detect_seed",
                              seed=run.job.seed, detector=run.job.kind,
                              cached=True, reports=run.stats.reports)
        return runs



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
    witness replays).  ``sweep`` defaults to a serial, uncached one.
    """
    sweep = sweep if sweep is not None else Sweep()
    if explore is not None:
        from repro.owl.explore import explore_seeds

        return explore_seeds(module, base, sweep, explore,
                             world_factory=world_factory)
    runs = sweep.run(module, [base.replace(seed=seed) for seed in seeds])
    return merge_runs(runs), runs
