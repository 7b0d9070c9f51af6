"""One detector execution as a value: :class:`SeedJob` and :func:`run_seed`.

Paper section 6.3 runs one detector (TSan for applications, SKI for
kernels) over many schedules.  A :class:`SeedJob` names one such execution
completely — the module source, detector kind, schedule family and depth,
seed, workload, annotations and the per-seed options — so the same frozen
value is the detect stage's item payload and, minus
:data:`NON_KEY_FIELDS`, the result-cache key.

Adding a seed option means adding one field to :class:`SeedJob` (and, if
it observes the schedule, one entry to :data:`_WRAPPERS`): the worker, the
cache keys and every signature above :func:`run_seed` carry it unchanged.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.detectors.annotations import annotations_from_payload
from repro.detectors.report import (
    ReportSet,
    reports_from_payloads,
    reports_to_payloads,
)
from repro.detectors.ski import SkiDetector
from repro.detectors.tsan import TSanDetector
from repro.ir.module import Module
from repro.runtime.interpreter import VM
from repro.runtime.metrics import RunStats
from repro.runtime.scheduler import PCTScheduler, RandomScheduler
from repro.runtime.spans import maybe_span

#: Fields left out of cache keys: the module source (the module digest
#: already keys the build) and the record flag (recording never changes
#: the detector's results, so recorded and plain runs share ``detect``
#: entries; logs live in their own ``record`` stage under the same key).
NON_KEY_FIELDS = ("source", "record")

#: The detector class of each ``SeedJob.kind``.
DETECTORS = {"tsan": TSanDetector, "ski": SkiDetector}
_FAMILIES = ("random", "pct")


class _SeedJobFields(NamedTuple):
    source: object = None
    kind: str = "tsan"
    scheduler: Optional[str] = None
    depth: int = 3
    seed: int = 0
    entry: str = "main"
    inputs: Optional[Dict] = None
    entry_args: Tuple[int, ...] = ()
    max_steps: int = 200_000
    annotations: Optional[Tuple] = None
    record: bool = False
    coverage: bool = False
    profile: Optional[int] = None


class SeedJob(_SeedJobFields):
    """Everything one detector execution depends on.

    - ``source`` — a registry spec name or a picklable zero-argument module
      factory (workers rebuild the module from it); ``None`` when the
      caller always supplies the module in-process.
    - ``kind`` — the detector, ``"tsan"`` or ``"ski"``.
    - ``scheduler``/``depth`` — the schedule family (``"random"`` or
      ``"pct"``; ``None`` picks the detector's own: random for TSan, PCT
      for SKI) and the PCT depth.
    - ``seed``, ``entry``, ``inputs``, ``entry_args``, ``max_steps`` —
      the execution itself.
    - ``annotations`` — adhoc-sync annotations as
      :func:`repro.detectors.annotations.annotations_to_payload` triples.
    - ``record`` — also record a :class:`repro.runtime.record.ScheduleLog`.
    - ``coverage`` — also track a :class:`repro.runtime.coverage.SeedCoverage`.
    - ``profile`` — sample the VM every ``profile`` scheduler decisions
      into a :class:`repro.runtime.profiler.SeedProfile` (``None``: off).

    None of the options can change the detector's results: every wrapper
    delegates each scheduling decision unchanged.  Fusion is not an
    option: the VM fuses wherever its scheduler commits a run
    (:mod:`repro.runtime.fuse`), bit-identically by construction.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        job = super().__new__(cls, *args, **kwargs)
        if job.kind not in DETECTORS:
            raise ValueError("unknown detector kind %r" % (job.kind,))
        if job.scheduler is not None and job.scheduler not in _FAMILIES:
            raise ValueError("unknown scheduler family %r" % (job.scheduler,))
        return job

    @property
    def family(self) -> str:
        """The schedule family this job actually runs under."""
        if self.scheduler is not None:
            return self.scheduler
        return "pct" if self.kind == "ski" else "random"

    def replace(self, **changes) -> "SeedJob":
        fields = self._asdict()
        fields.update(changes)
        return SeedJob(**fields)

    def key_parts(self) -> Dict:
        """Every field a cached result depends on (all but the non-key set)."""
        return {name: value for name, value in zip(self._fields, self)
                if name not in NON_KEY_FIELDS}


#: The optional outputs of a run.
_OUTPUTS = ("coverage", "log", "profile")


def _output_type(name: str):
    if name == "coverage":
        from repro.runtime.coverage import SeedCoverage as kind
    elif name == "log":
        from repro.runtime.record import ScheduleLog as kind
    else:
        from repro.runtime.profiler import SeedProfile as kind
    return kind


class SeedRun:
    """What one :class:`SeedJob` produced, wherever it ran.

    ``reports`` and ``stats`` are always set; ``coverage``, ``log`` and
    ``profile`` when the job asked for them.  ``cached`` marks a run
    answered from the result cache.  :meth:`to_payload` is the form every
    run reaches its caller in, crosses process boundaries in and lands in
    cache entries in.  Timings are never cached, so it holds none and
    ``stats`` carries no ``wall_seconds``.
    """

    __slots__ = ("job", "reports", "stats", "coverage", "log", "profile",
                 "cached")

    def __init__(self, job: SeedJob, reports: ReportSet, stats: RunStats,
                 cached: bool = False):
        self.job = job
        self.reports = reports
        self.stats = stats
        self.coverage = None
        self.log = None
        self.profile = None
        self.cached = cached

    def to_payload(self) -> Dict:
        stats = self.stats
        payload = {
            "seed": self.job.seed,
            "reports": reports_to_payloads(self.reports),
            "stats": (stats.seed, stats.reason, stats.steps, stats.accesses,
                      stats.reports),
        }
        for name in _OUTPUTS:
            value = getattr(self, name)
            if value is not None:
                payload[name] = value.to_payload()
        return payload

    @classmethod
    def from_payload(cls, module: Module, job: SeedJob, payload: Dict,
                     cached: bool = False) -> "SeedRun":
        """Rehydrate :meth:`to_payload` output against ``module``."""
        run = cls(job, reports_from_payloads(module, payload["reports"]),
                  RunStats(*payload["stats"]), cached=cached)
        for name in _OUTPUTS:
            if payload.get(name) is not None:
                setattr(run, name,
                        _output_type(name).from_payload(payload[name]))
        return run


# ---------------------------------------------------------------------------
# module sources: rebuilt once per process, not per job

_SPECS: Dict[str, object] = {}
_MODULES: Dict[object, Module] = {}


def cached_spec(name: str):
    """The registry spec ``name``, built once per process."""
    spec = _SPECS.get(name)
    if spec is None:
        from repro.apps.registry import spec_by_name

        spec = spec_by_name(name)
        _SPECS[name] = spec
    return spec


def resolve_module(source) -> Module:
    """A module from a registry spec name or a picklable factory function."""
    if source is None:
        raise ValueError("a SeedJob without a source needs an explicit module")
    module = _MODULES.get(source)
    if module is None:
        if isinstance(source, str):
            module = cached_spec(source).build()
        else:
            module = source()
        _MODULES[source] = module
    return module


# ---------------------------------------------------------------------------
# the scheduler wrapper chain


def _recorder(job: SeedJob, inner):
    from repro.runtime.record import ScheduleRecorder

    return ScheduleRecorder(inner)


def _switch_tracker(job: SeedJob, inner):
    from repro.runtime.coverage import SwitchTracker

    return SwitchTracker(inner)


def _profiler(job: SeedJob, inner):
    from repro.runtime.profiler import SamplingProfiler

    return SamplingProfiler(inner, interval=job.profile, observed=True)


#: The pure-delegation scheduler wrappers, innermost first, each keyed by
#: the job field that turns it on: ``(field, wrap(job, inner))``.
_WRAPPERS = (
    ("record", _recorder),
    ("coverage", _switch_tracker),
    ("profile", _profiler),
)


def make_scheduler(job: SeedJob):
    """The bare scheduler of ``job``'s family, seeded by ``job.seed``."""
    if job.family == "pct":
        return PCTScheduler(seed=job.seed, depth=job.depth)
    return RandomScheduler(job.seed)


def run_seed(job: SeedJob, module: Optional[Module] = None,
             tracer=None) -> SeedRun:
    """Execute one job into a fresh report set.

    ``module`` defaults to the one ``job.source`` resolves to; pass the
    caller's own copy to keep instruction identity (an in-process sweep
    does).
    ``tracer`` (a :class:`repro.runtime.spans.SpanTracer`) records the
    execution as a ``detect_seed`` span.

    Per-seed report sets merged in seed order are bit-identical to one
    report set shared across all seeds (dedup keeps the first static
    occurrence and appends later watch data either way).
    """
    if module is None:
        module = resolve_module(job.source)
    scheduler = make_scheduler(job)
    wrappers: Dict[str, object] = {}
    for option, wrap in _WRAPPERS:
        if getattr(job, option):
            scheduler = wrap(job, scheduler)
            wrappers[option] = scheduler
    vm = VM(module, scheduler=scheduler, inputs=job.inputs,
            max_steps=job.max_steps, seed=job.seed)
    detector = DETECTORS[job.kind](
        annotations=annotations_from_payload(module, job.annotations),
        reports=ReportSet(),
    )
    vm.add_observer(detector)
    recorder = wrappers.get("record")
    if recorder is not None:
        vm.add_observer(recorder)
    with maybe_span(tracer, "detect_seed", seed=job.seed,
                    detector=job.kind) as span:
        vm.start(job.entry, job.entry_args)
        result = vm.run()
        if span is not None:
            span.attrs.update(steps=result.steps, reason=result.reason,
                              reports=len(detector.reports))
    reports = detector.reports
    stats = RunStats(
        seed=job.seed, reason=result.reason, steps=result.steps,
        accesses=detector.access_count, reports=len(reports),
    )
    run = SeedRun(job, reports, stats)
    if "coverage" in wrappers:
        from repro.runtime.coverage import SeedCoverage

        run.coverage = SeedCoverage.from_run(job.seed, reports,
                                             wrappers["coverage"])
    if recorder is not None:
        run.log = recorder.to_log(
            module, job.seed, entry=job.entry, entry_args=job.entry_args,
            max_steps=job.max_steps, result=result,
        )
    if "profile" in wrappers:
        run.profile = wrappers["profile"].data
    return run


def run_seeds(module: Module, job: SeedJob,
              seeds: Sequence[int]) -> Tuple[ReportSet, List[RunStats]]:
    """Run ``job`` once per seed on ``module``; merged reports + stats.

    The plain sweep behind :func:`repro.detectors.tsan.run_tsan` and
    :func:`repro.detectors.ski.run_ski`; pooled, cached and explored
    sweeps belong to the OWL pipeline's sweep driver, which calls
    :func:`run_seed` the same way.
    """
    reports = ReportSet()
    stats = []
    for seed in seeds:
        run = run_seed(job.replace(seed=seed), module=module)
        reports.merge(run.reports)
        stats.append(run.stats)
    return reports, stats
