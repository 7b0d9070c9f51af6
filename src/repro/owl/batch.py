"""Batch execution for the OWL pipeline: stage items, payloads and the pool.

The paper's deployment story (Table 1: 28,209 reports; Table 3: 31,870 raw
detector reports) makes detector throughput the limiting factor, and every
stage of Figure 3 splits into independent units of work:

- **detection** — each ``(program × seed)`` detector run is an independent
  VM execution (a predict wave's recorded seed too,
  :mod:`repro.owl.explore`),
- **adhoc classification** — the raw report set of one run,
- **race verification** — each report is re-executed on its own,
- **Algorithm-1 analysis** — each remaining report is propagated on its own,
- **vulnerability verification** — each vulnerable-input hint likewise,
- and ``owl fix``'s gates, one target's candidate at a time
  (:mod:`repro.owl.repair`).

Each such unit is a stage *item*: a plain payload that names the whole
job, an item function that computes a plain output from it, and one
rehydration of that output into result objects.  A detector seed's
payload is its :class:`repro.detectors.seed.SeedJob`; a verification's is
:func:`verify_job` — the spec name, entry, inputs, verify seeds and step
budget, plus the report or vulnerability — and its item function
(:func:`verify_report_item`, :func:`verify_vuln_item`) builds the verifier
from exactly those fields, so what runs is what the cache key
(:mod:`repro.owl.cache`) names.  The sweep
(:meth:`repro.owl.sweep.Sweep.map`) decides where each item runs:

- answered from the result cache (the stored output, marked ``cached``),
- in-process, on the caller's spec and module, its spans written live to
  the run's tracer, or
- in a pool worker (:func:`in_worker`), which rebuilds the spec by
  registry name (:func:`can_parallelize`) and ships its spans back for
  adoption (:func:`adopt_spans`).  Detection and both verifications go
  there; the adhoc, Algorithm-1, predict and repair items always run
  in-process.

Every path hands the same output to the same rehydration, so results are
identical on all three, and the sweep and this module are the only code
that reads or writes the cache.  Instruction identity crosses the
boundary as the module uid: module builds are deterministic, and
rehydrating against the caller's module restores object identity, so
breakpoints and tag lookups behave alike.  Each worker process caches the
spec it rebuilt, amortizing the build across its tasks.

**Determinism and parity invariants** (the contract every function here
keeps, and the tests in ``tests/owl/test_batch.py`` enforce):

1. *Order independence* — outputs are rehydrated in seed / report /
   vulnerability order, never by completion order, so
   :meth:`StageCounters.parity_dict` is bit-identical at any job count.
2. *Identity through payloads* — rehydrating against the caller's module
   restores instruction identity on every path.
3. *One item, every path* — the item function's output depends on its
   payload alone, wherever it runs, so the pool, the cache and a
   fault-tolerant re-run in the parent never change results, only
   wall-clock.
4. *Cache transparency* — a cache hit returns the exact output the item
   originally produced (minus spans and timings), so cached and uncached
   runs emit bit-identical counters and provenance dispositions.

**Fault tolerance** (:class:`BatchPolicy`, :func:`run_tasks`): each pooled
item gets a per-item result-wait budget; transient failures — a crashed
worker process, a broken pool, a timeout — are retried with exponential
backoff, and items still failing after the retry budget are re-run
in-process, so one bad worker degrades throughput rather than failing the
batch.  Workers always terminate on their own eventually (every VM runs
under a ``max_steps`` budget), so "hung" here means slow, and pool
shutdown is bounded.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.detectors.annotations import AdhocSyncAnnotation, AnnotationSet
from repro.detectors.report import (
    RaceReport,
    report_from_payload,
    report_to_payload,
    reports_to_payloads,
)
from repro.detectors.seed import cached_spec
from repro.ir.module import Module
from repro.owl.adhoc import AdhocSyncDetector
from repro.owl.race_verifier import (
    DynamicRaceVerifier,
    RaceVerification,
    SecurityHints,
)
from repro.owl.vuln_analysis import (
    DependenceKind,
    VulnerabilityAnalyzer,
    VulnerabilityReport,
)
from repro.owl.vuln_sites import VulnSiteType
from repro.owl.vuln_verifier import DynamicVulnerabilityVerifier, VulnVerification
from repro.runtime.errors import FaultKind
from repro.runtime.spans import SpanTracer
from repro.spec import AttackGroundTruth, ProgramSpec

# ---------------------------------------------------------------------------
# payload (de)hydration — instruction identity travels as the module uid


def vuln_to_payload(vulnerability) -> Dict:
    return {
        "site": vulnerability.site.uid or 0,
        "site_type": vulnerability.site_type.value,
        "kind": vulnerability.kind.value,
        "branches": [branch.uid or 0 for branch in vulnerability.branches],
        "start": vulnerability.start.uid or 0,
        "call_stack": tuple(vulnerability.call_stack),
        "source": (
            report_to_payload(vulnerability.source)
            if vulnerability.source is not None else None
        ),
    }


def vuln_from_payload(module: Module, payload: Dict) -> VulnerabilityReport:
    return VulnerabilityReport(
        site=module.instruction_by_uid(payload["site"]),
        site_type=VulnSiteType(payload["site_type"]),
        kind=DependenceKind(payload["kind"]),
        branches=[module.instruction_by_uid(uid) for uid in payload["branches"]],
        start=module.instruction_by_uid(payload["start"]),
        call_stack=tuple(payload["call_stack"]),
        source=(
            report_from_payload(module, payload["source"])
            if payload["source"] is not None else None
        ),
    )


def can_parallelize(spec: ProgramSpec) -> bool:
    """Whether worker processes can rebuild this spec from its name."""
    from repro.apps.registry import has_spec

    return has_spec(spec.name)


@contextmanager
def _pool(jobs: int, executor: Optional[ProcessPoolExecutor]):
    """Use the caller's executor, or run a private one for this call."""
    if executor is not None:
        yield executor
        return
    own = ProcessPoolExecutor(max_workers=max(1, jobs))
    try:
        yield own
    finally:
        own.shutdown()


def make_executor(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max(1, jobs))


# ---------------------------------------------------------------------------
# fault-tolerant task execution

#: Sentinel distinguishing "no result yet" from any legitimate worker output.
_UNSET = object()

#: Seconds slept before the first retry wave, doubling each wave
#: (exponential backoff for transient failures).
BACKOFF_SECONDS = 0.1


class BatchPolicy:
    """Fault-tolerance budgets for batched worker tasks.

    - ``timeout`` — per-item result-wait budget in seconds (None = wait
      forever; workers always terminate on their own because every VM runs
      under ``max_steps``).
    - ``retries`` — how many extra parallel waves a failed item gets
      (each after :data:`BACKOFF_SECONDS`, doubling per wave); items that
      exhaust them are re-run in-process.

    The instance also *accumulates* counters across every batch it
    supervises (one policy serves a whole pipeline run); they live in its
    :class:`repro.runtime.telemetry.MetricsRegistry` (``batch.*`` names)
    and surface in the metrics JSON as the ``"batch"`` block.
    """

    def __init__(self, timeout: Optional[float] = None, retries: int = 2):
        from repro.runtime.telemetry import MetricsRegistry

        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.registry = MetricsRegistry()
        self._timeouts = self.registry.counter("batch.timeouts")
        self._retried = self.registry.counter("batch.retries")
        self._worker_failures = self.registry.counter("batch.worker_failures")
        self._serial_fallbacks = self.registry.counter(
            "batch.serial_fallbacks")

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def retried(self) -> int:
        return self._retried.value

    @property
    def worker_failures(self) -> int:
        return self._worker_failures.value

    @property
    def serial_fallbacks(self) -> int:
        return self._serial_fallbacks.value

    def counters(self) -> Dict:
        """The metrics-JSON ``"batch"`` block."""
        return {
            "timeout_seconds": self.timeout,
            "retry_budget": self.retries,
            "backoff_seconds": BACKOFF_SECONDS,
            "timeouts": self.timeouts,
            "retries": self.retried,
            "worker_failures": self.worker_failures,
            "serial_fallbacks": self.serial_fallbacks,
        }

    def __repr__(self) -> str:
        return ("<BatchPolicy timeout=%s retries=%d timeouts=%d "
                "failures=%d fallbacks=%d>") % (
            self.timeout, self.retries, self.timeouts,
            self.worker_failures, self.serial_fallbacks,
        )


def run_tasks(worker: Callable[[Dict], Dict], payloads: Sequence[Dict],
              pool: Optional[ProcessPoolExecutor],
              policy: Optional[BatchPolicy] = None) -> List[Dict]:
    """Run ``worker`` over ``payloads`` on ``pool``; results in payload order.

    Transient failures — a worker process dying (``BrokenExecutor``), an
    exception escaping the worker, or an item exceeding the policy's
    per-item timeout — are retried in waves with exponential backoff.
    Items that exhaust the retry budget (or face a broken/absent pool) are
    re-run in-process, so a flaky pool degrades to in-process execution
    with identical results instead of failing the batch.  Deterministic
    worker errors therefore surface exactly once, from the in-process run,
    with a real traceback.
    """
    policy = policy if policy is not None else BatchPolicy()
    results: List = [_UNSET] * len(payloads)
    pending = list(range(len(payloads)))
    broken = pool is None
    wave = 0
    while pending and not broken and wave <= policy.retries:
        if wave:
            policy._retried.inc(len(pending))
            time.sleep(BACKOFF_SECONDS * (2 ** (wave - 1)))
        futures = {}
        try:
            for index in pending:
                futures[pool.submit(worker, payloads[index])] = index
        except Exception:
            broken = True  # pool refused work (shut down or broken)
        for future, index in futures.items():
            try:
                results[index] = future.result(timeout=policy.timeout)
            except FuturesTimeoutError:
                policy._timeouts.inc()
                future.cancel()
            except BrokenExecutor:
                policy._worker_failures.inc()
                broken = True
            except Exception:
                policy._worker_failures.inc()
        pending = [index for index in pending if results[index] is _UNSET]
        wave += 1
    for index in pending:
        policy._serial_fallbacks.inc()
        results[index] = worker(payloads[index])
    return results


def _cacheable(output: Dict) -> Dict:
    """What of an item output goes into the result cache.

    Spans and ``seconds`` are observations of one particular execution
    (timings, worker ids), not results — replaying them from a warm cache
    would be lying about where time went, so they are stripped; cache hits
    get a single ``cached=True`` marker span instead.  Schedule logs are
    stripped too: they live in their own ``record`` stage (far smaller
    entries), so a detect entry produced by a recording run stays
    byte-identical to one produced by a normal run.
    """
    return {key: value for key, value in output.items()
            if key not in ("spans", "log", "seconds")}


def cached_output(cache, stage: str, key: Optional[str]) -> Optional[Dict]:
    """The stored output of one item, marked ``cached``; None on a miss
    (or without a cache or key)."""
    if cache is None or key is None:
        return None
    value = cache.get(stage, key)
    return None if value is None else dict(value, cached=True)


def store_output(cache, stage: str, key: Optional[str], output: Dict) -> None:
    """Store one fresh item output (when there is a cache and a key)."""
    if cache is not None and key is not None:
        cache.put(stage, key, _cacheable(output))


def run_cached_tasks(
    worker: Callable[[Dict], Dict],
    payloads: Sequence[Dict],
    cache=None,
    stage: str = "",
    keys: Optional[Sequence[Optional[str]]] = None,
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    policy: Optional[BatchPolicy] = None,
) -> List[Dict]:
    """Cache-aware, fault-tolerant fan-out of one stage's items to a pool.

    Items whose key is already in ``cache`` are answered from disk (their
    output gains ``"cached": True`` and carries no spans); the rest run
    via :func:`run_tasks` on ``executor`` (or a private pool of ``jobs``
    workers), and their stripped outputs are stored.  A ``None`` key
    leaves its item out of the cache.  Outputs always come back in
    payload order, so the merge the caller performs is identical no
    matter which items were cached, pooled or re-run in-process.
    """
    keys = keys if keys is not None else [None] * len(payloads)
    results = [cached_output(cache, stage, key) for key in keys]
    missing = [index for index, output in enumerate(results)
               if output is None]
    if missing:
        with _pool(jobs, executor) as pool:
            outputs = run_tasks(worker, [payloads[index] for index in missing],
                                pool, policy=policy)
        for index, output in zip(missing, outputs):
            results[index] = output
            store_output(cache, stage, keys[index], output)
    return results


def in_worker(item: Callable, payload) -> Dict:
    """Run ``item`` on ``payload`` in a pool worker: under its own tracer,
    whose spans travel back in the output for :func:`adopt_spans`."""
    tracer = SpanTracer()
    output = item(payload, tracer)
    output["spans"] = tracer.export_payload()
    return output


def adopt_spans(tracer: Optional[SpanTracer], output: Dict, name: str,
                **attrs) -> None:
    """Fold one item's spans into ``tracer`` in merge order.

    A pooled output's worker spans are adopted; a cache hit gets a single
    ``name`` marker span (:meth:`SpanTracer.marker`) with ``attrs``, the
    attrs of the live span it stands in for, instead.  An in-process
    output has none: its spans went to ``tracer`` as it ran.
    """
    if tracer is None:
        return
    if output.get("cached"):
        tracer.marker(name, **attrs)
    elif output.get("spans"):
        tracer.adopt(output["spans"])


# ---------------------------------------------------------------------------
# verification items: the payload is the whole job


def verify_job(spec: ProgramSpec, **item) -> Dict:
    """One verification item's payload: ``spec``'s name, entry, workload
    inputs, verify seeds and step budget, updated with ``item`` (the
    report or vulnerability, and any override)."""
    job = {
        "spec": spec.name,
        "entry": spec.entry,
        "inputs": spec.workload_inputs,
        "seeds": list(spec.verify_seeds),
        "max_steps": spec.max_steps,
    }
    job.update(item)
    return job


def _item_spec(job: Dict, spec: Optional[ProgramSpec]) -> ProgramSpec:
    """The caller's spec in-process; the registry's in a pool worker."""
    return spec if spec is not None else cached_spec(job["spec"])


def _verify_items(stage: str, item, jobs: List[Dict], spec: ProgramSpec,
                  sweep, finish, **local) -> List:
    """One verification stage's items through ``sweep``, keyed by the
    whole payload; ``finish`` rehydrates each output in order.  In-process
    items get ``spec`` and ``local``."""
    keys = sweep.keys(stage, spec.build(), jobs)
    return sweep.map(stage, item, jobs, keys, finish,
                     rebuildable=can_parallelize(spec), spec=spec, **local)


# ---------------------------------------------------------------------------
# stage 2: adhoc-sync classification, one item per run


def adhoc_item(job: Dict, tracer: Optional[SpanTracer] = None,
               module: Optional[Module] = None) -> Dict:
    """Classify ``job``'s reports on ``module``; the output payload: per
    annotation, in classification order, the uid of the report it tagged
    and its read, write and variable."""
    reports = [report_from_payload(module, payload)
               for payload in job["reports"]]
    AdhocSyncDetector().analyze(reports)
    tagged = []
    for report in reports:
        annotation = report.tags.get(AdhocSyncDetector.TAG)
        if annotation is not None:
            tagged.append([report.uid,
                           annotation.read_instruction.uid or 0,
                           annotation.write_instruction.uid or 0,
                           annotation.variable])
    return {"tagged": tagged}


def classify_adhoc(module: Module, reports, sweep) -> AnnotationSet:
    """The adhoc-sync annotations of ``reports`` on ``module``, one item
    through ``sweep``.

    Like :meth:`AdhocSyncDetector.analyze`, each annotated report is
    tagged with its annotation.  The annotations come back in
    classification order: their payload feeds the detector re-run's cache
    key.
    """
    reports = list(reports)

    def finish(index: int, output: Dict) -> AnnotationSet:
        by_uid = {report.uid: report for report in reports}
        annotations = AnnotationSet()
        for report_uid, read_uid, write_uid, variable in output["tagged"]:
            annotation = AdhocSyncAnnotation(
                module.instruction_by_uid(read_uid),
                module.instruction_by_uid(write_uid), variable)
            annotations.add(annotation)
            by_uid[report_uid].tags[AdhocSyncDetector.TAG] = annotation
        return annotations

    jobs = [{"reports": reports_to_payloads(reports)}]
    return sweep.map("adhoc", adhoc_item, jobs,
                     sweep.keys("adhoc", module, jobs), finish,
                     rebuildable=False, module=module)[0]


# ---------------------------------------------------------------------------
# stage 3: per-report race verification


def race_verifier_for(spec: ProgramSpec, job: Dict,
                      tracer: Optional[SpanTracer] = None,
                      trunks: Optional[Dict] = None) -> DynamicRaceVerifier:
    """The race verifier of one item: ``job``'s entry, inputs, seeds and
    step budget on ``spec``'s module, its runs taking over ``trunks``
    (:class:`repro.owl.race_verifier.Trunk`) where they can."""
    inputs, max_steps = job["inputs"], job["max_steps"]
    return DynamicRaceVerifier(
        spec.build(), entry=job["entry"], inputs=inputs, seeds=job["seeds"],
        max_steps=max_steps,
        vm_factory=lambda seed: spec.make_vm(seed, inputs=inputs,
                                             max_steps=max_steps),
        tracer=tracer, trunks=trunks,
    )


def verify_report_item(job: Dict, tracer: Optional[SpanTracer] = None,
                       spec: Optional[ProgramSpec] = None,
                       trunks: Optional[Dict] = None) -> Dict:
    """Verify ``job``'s report; the output payload.  In-process items
    share their batch's ``trunks``; a pooled item runs every run fresh."""
    spec = _item_spec(job, spec)
    report = report_from_payload(spec.build(), job["report"])
    verification = race_verifier_for(spec, job, tracer,
                                      trunks).verify(report)
    hints = verification.hints
    return {
        "verified": verification.verified,
        "runs_used": verification.runs_used,
        "livelocks_resolved": verification.livelocks_resolved,
        "vm_steps": verification.vm_steps,
        "runs_stopped_early": verification.runs_stopped_early,
        "hints": None if hints is None else dict(vars(hints)),
    }


def verify_races_batch(spec: ProgramSpec, reports: Sequence[RaceReport],
                       sweep) -> List[RaceVerification]:
    """Verify each report as one item; results keep report order.

    ``sweep`` (:class:`repro.owl.sweep.Sweep`) is the run's execution
    context: its cache, pool and batch policy run the items, and its
    tracer gets one ``verify_report`` span per report, in report order,
    on every path.  In-process items share one trunk per verify seed
    (:class:`repro.owl.race_verifier.Trunk`), so each seed's common
    prefix runs once for the whole batch.
    """
    reports = list(reports)

    def finish(index: int, output: Dict) -> RaceVerification:
        report = reports[index]
        hints = (SecurityHints(**output["hints"])
                 if output["hints"] is not None else None)
        if output["verified"]:
            report.tags[DynamicRaceVerifier.TAG] = hints
        verification = RaceVerification(
            report, output["verified"], hints, output["runs_used"],
            output["livelocks_resolved"],
        )
        verification.vm_steps = output["vm_steps"]
        verification.runs_stopped_early = output["runs_stopped_early"]
        adopt_spans(sweep.tracer, output, "verify_report",
                    report=report.uid, variable=report.variable,
                    verified=output["verified"],
                    runs_used=output["runs_used"],
                    livelocks_resolved=output["livelocks_resolved"])
        return verification

    jobs = [verify_job(spec, report=report_to_payload(report))
            for report in reports]
    return _verify_items("race_verify", verify_report_item, jobs, spec,
                         sweep, finish, trunks={})


# ---------------------------------------------------------------------------
# stage 4: Algorithm 1, one item per usable report


def analyze_item(job: Dict, tracer: Optional[SpanTracer] = None,
                 analyzer: Optional[VulnerabilityAnalyzer] = None) -> Dict:
    """Run Algorithm 1 from ``job``'s report with ``analyzer`` (the
    caller's, built with ``job``'s options, its spans going to the run's
    tracer); the output payload, plus the analysis' wall time as
    ``seconds``."""
    report = report_from_payload(analyzer.module, job["report"])
    started = time.perf_counter()
    found = analyzer.analyze_report(report)
    return {
        "vulns": [vuln_to_payload(vulnerability) for vulnerability in found],
        "budget_exhausted": analyzer.budget_exhausted,
        "seconds": time.perf_counter() - started,
    }


def analyze_reports_batch(module: Module, reports: Sequence[RaceReport],
                          sweep) -> List[Tuple[List, bool, float]]:
    """Algorithm 1 from each report on ``module``, one item per report
    through ``sweep``; per report, in order: the vulnerabilities found,
    whether the instruction budget ran out, and the analysis' wall time
    (0 for an answer from the cache).  The sweep's tracer gets each
    analysis' spans, or a cached ``analyze_report`` marker."""
    reports = list(reports)
    analyzer = VulnerabilityAnalyzer(module, tracer=sweep.tracer)

    def finish(index: int, output: Dict) -> Tuple[List, bool, float]:
        found = [vuln_from_payload(module, payload)
                 for payload in output["vulns"]]
        budget_exhausted = output["budget_exhausted"]
        adopt_spans(sweep.tracer, output, "analyze_report",
                    report=reports[index].uid, sites=len(found),
                    budget_exhausted=budget_exhausted)
        return found, budget_exhausted, output.get("seconds", 0.0)

    jobs = [{"report": report_to_payload(report),
             "options": vars(analyzer.options)} for report in reports]
    return sweep.map("vuln_analysis", analyze_item, jobs,
                     sweep.keys("vuln_analysis", module, jobs), finish,
                     rebuildable=False, analyzer=analyzer)


# ---------------------------------------------------------------------------
# stage 5: per-vulnerability verification


def vuln_job(spec: ProgramSpec, vulnerability) -> Dict:
    """One vulnerability's item payload.  A site that matches one of the
    spec's known attacks runs on that attack's subtle inputs (the "user
    intervention" of paper §4.3)."""
    truth = spec.attack_for_site(vulnerability.site.location)
    return verify_job(
        spec, vuln=vuln_to_payload(vulnerability),
        inputs=(truth.subtle_inputs if truth is not None
                else spec.workload_inputs))


def vuln_verifier_for(
    spec: ProgramSpec, job: Dict, vulnerability,
    module: Optional[Module] = None, tracer: Optional[SpanTracer] = None,
) -> DynamicVulnerabilityVerifier:
    """The verifier of one vulnerability item: ``job``'s entry, inputs,
    seeds and step budget on ``module`` (default: ``spec``'s), steered by
    the attack predicate and racing order of the ground truth ``spec``
    knows for the site."""
    module = module if module is not None else spec.build()
    truth = spec.attack_for_site(vulnerability.site.location)
    inputs, max_steps = job["inputs"], job["max_steps"]
    return DynamicVulnerabilityVerifier(
        module, entry=job["entry"], inputs=inputs, seeds=job["seeds"],
        max_steps=max_steps,
        vm_factory=lambda seed: spec.make_vm(
            seed, inputs=inputs, max_steps=max_steps, module=module),
        attack_predicate=truth.predicate if truth is not None else None,
        racing_order=(
            (truth.racing_order, "") if truth is not None else None
        ),
        tracer=tracer,
    )


def verify_vuln_item(job: Dict, tracer: Optional[SpanTracer] = None,
                     spec: Optional[ProgramSpec] = None,
                     module: Optional[Module] = None) -> Dict:
    """Verify ``job``'s vulnerability on ``module`` (default: the spec's;
    repair passes a patched clone); the output payload."""
    spec = _item_spec(job, spec)
    module = module if module is not None else spec.build()
    vulnerability = vuln_from_payload(module, job["vuln"])
    verification = vuln_verifier_for(
        spec, job, vulnerability, module, tracer).verify(vulnerability)
    return {
        "site_reached": verification.site_reached,
        "attack_realized": verification.attack_realized,
        "diverged": [branch.uid or 0
                     for branch in verification.diverged_branches],
        "faults": [kind.value for kind in verification.fault_kinds],
        "runs_used": verification.runs_used,
        "vm_steps": verification.vm_steps,
    }


def verify_vulns_batch(
    spec: ProgramSpec, vulnerabilities: Sequence, sweep,
) -> List[Tuple[VulnVerification, Optional[AttackGroundTruth]]]:
    """Verify each vulnerability as one item; results keep input order.

    Ground truth is matched by site location against the item's spec —
    the caller's in-process, the registry's in a worker — so attack
    predicates never cross the process boundary; the parent re-matches
    against its own spec for the returned pairing.  ``sweep`` is the
    execution context, as for :func:`verify_races_batch`; its tracer gets
    one ``verify_vulnerability`` span per vulnerability, in input order,
    on every path.
    """
    vulnerabilities = list(vulnerabilities)
    module = spec.build()

    def finish(index: int, output: Dict):
        vulnerability = vulnerabilities[index]
        verification = VulnVerification(
            vulnerability,
            output["site_reached"],
            output["attack_realized"],
            [module.instruction_by_uid(uid) for uid in output["diverged"]],
            [FaultKind(value) for value in output["faults"]],
            output["runs_used"],
        )
        verification.vm_steps = output["vm_steps"]
        adopt_spans(sweep.tracer, output, "verify_vulnerability",
                    site=str(vulnerability.site.location),
                    site_type=vulnerability.site_type.value,
                    site_reached=output["site_reached"],
                    attack_realized=output["attack_realized"],
                    runs_used=output["runs_used"])
        return (verification,
                spec.attack_for_site(vulnerability.site.location))

    jobs = [vuln_job(spec, vulnerability) for vulnerability in vulnerabilities]
    return _verify_items("vuln_verify", verify_vuln_item, jobs, spec, sweep,
                         finish)
