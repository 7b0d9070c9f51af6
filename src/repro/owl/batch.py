"""Parallel batch execution for the OWL pipeline.

The paper's deployment story (Table 1: 28,209 reports; Table 3: 31,870 raw
detector reports) makes detector throughput the limiting factor, and every
stage of Figure 3 is embarrassingly parallel at some granularity:

- **detection** — each ``(program × seed)`` detector run is an independent
  VM execution,
- **race verification** — each report is re-executed on its own,
- **vulnerability verification** — each vulnerable-input hint likewise.

This module fans those units out over a ``concurrent.futures`` process pool
(:func:`run_tasks`, :func:`run_cached_tasks`) and merges results
*deterministically*, so pipeline counters are bit-identical to the serial
run: per-seed report sets are merged in seed order by the sweep driver
(:mod:`repro.owl.sweep`, whose worker payload is a
:class:`repro.detectors.seed.SeedJob`), and per-item verification outcomes
are reassembled by index here.

Worker processes cannot receive VMs, modules or IR instructions (they are
not picklable, and identity matters to the debugger's breakpoints), so the
boundary works in *payloads*: plain tuples/dicts keyed by instruction uid.
Module builds are deterministic — the same factory assigns the same uids —
so a worker rebuilds the module from the spec registry (or a module-level
factory function) and rehydrates reports against its own copy; the parent
rehydrates results against the original module.  Each worker process caches
the built spec/module, amortizing the rebuild across all its tasks.

Parallel execution therefore requires the :class:`ProgramSpec` to be
resolvable by name through :mod:`repro.apps.registry` (or a picklable
module factory as the job's ``source``); anything else silently falls back to the
serial path with identical results.

**Determinism and parity invariants** (the contract every function here
keeps, and the tests in ``tests/owl/test_batch.py`` enforce):

1. *Order independence* — results are reassembled by seed / report /
   vulnerability index, never by completion order, so
   :meth:`StageCounters.parity_dict` is bit-identical at any job count.
2. *Identity through payloads* — instruction identity crosses the process
   boundary as the module uid; rehydrating against the parent's module
   restores object identity, so breakpoints and tag lookups behave as in
   a serial run.
3. *Worker equivalence* — running a worker function in-process (the serial
   fallback, or a cache miss at ``jobs=1``) produces the same payload the
   pooled worker would, so fault-tolerant degradation never changes
   results, only wall-clock.
4. *Cache transparency* — a cache hit returns the exact payload the worker
   originally produced (minus spans), so cached and uncached runs emit
   bit-identical counters and provenance dispositions (see
   :mod:`repro.owl.cache`).

**Fault tolerance** (:class:`BatchPolicy`, :func:`run_tasks`): each item
gets a per-item result-wait budget; transient failures — a crashed worker
process, a broken pool, a timeout — are retried with exponential backoff,
and items still failing after the retry budget are re-run serially
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

from repro.detectors.report import (
    RaceReport,
    report_from_payload,
    report_to_payload,
)
from repro.detectors.seed import cached_spec as _cached_spec
from repro.ir.module import Module
from repro.owl.race_verifier import (
    DynamicRaceVerifier,
    RaceVerification,
    SecurityHints,
)
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


def vuln_from_payload(module: Module, payload: Dict):
    from repro.owl.vuln_analysis import DependenceKind, VulnerabilityReport
    from repro.owl.vuln_sites import VulnSiteType

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


class BatchPolicy:
    """Fault-tolerance budgets for batched worker tasks.

    - ``timeout`` — per-item result-wait budget in seconds (None = wait
      forever; workers always terminate on their own because every VM runs
      under ``max_steps``).
    - ``retries`` — how many extra parallel waves a failed item gets.
    - ``backoff`` — sleep before the first retry wave, doubling each wave
      (exponential backoff for transient failures).
    - ``serial_fallback`` — whether items that exhaust the retry budget are
      re-run in-process; when False they raise instead.

    The instance also *accumulates* counters across every batch it
    supervises (one policy serves a whole pipeline run); they live in a
    :class:`repro.runtime.telemetry.MetricsRegistry` (``batch.*`` names,
    an injected pipeline-wide registry or a private one) and surface in
    the metrics JSON as the ``"batch"`` block.
    """

    def __init__(self, timeout: Optional[float] = None, retries: int = 2,
                 backoff: float = 0.1, serial_fallback: bool = True,
                 registry=None):
        from repro.runtime.telemetry import MetricsRegistry

        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.serial_fallback = serial_fallback
        self.registry = registry if registry is not None else MetricsRegistry()
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
            "backoff_seconds": self.backoff,
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
    re-run serially in-process, so a flaky pool degrades to serial
    execution with identical results instead of failing the batch.
    Deterministic worker errors therefore surface exactly once, from the
    in-process run, with a real traceback.
    """
    policy = policy if policy is not None else BatchPolicy()
    results: List = [_UNSET] * len(payloads)
    pending = list(range(len(payloads)))
    broken = pool is None
    wave = 0
    while pending and not broken and wave <= policy.retries:
        if wave:
            policy._retried.inc(len(pending))
            time.sleep(policy.backoff * (2 ** (wave - 1)))
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
    if pending:
        if not policy.serial_fallback:
            raise RuntimeError(
                "%d/%d batch items failed after %d retries"
                % (len(pending), len(payloads), policy.retries))
        for index in pending:
            policy._serial_fallbacks.inc()
            results[index] = worker(payloads[index])
    return results


def _cacheable(output: Dict) -> Dict:
    """What of a worker output goes into the result cache.

    Spans are observations of one particular execution (timings, worker
    ids), not results — replaying them from a warm cache would be lying
    about where time went, so they are stripped; cache hits get a single
    ``cached=True`` marker span instead.  Schedule logs are stripped too:
    they live in their own ``record`` stage (far smaller entries), so a
    detect entry produced by a recording run stays byte-identical to one
    produced by a normal run.
    """
    return {key: value for key, value in output.items()
            if key not in ("spans", "log")}


def run_cached_tasks(
    worker: Callable[[Dict], Dict],
    payloads: Sequence[Dict],
    cache=None,
    stage: str = "",
    keys: Optional[Sequence[str]] = None,
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    policy: Optional[BatchPolicy] = None,
) -> List[Dict]:
    """Cache-aware, fault-tolerant fan-out of one stage's items.

    Items whose key is already in ``cache`` are answered from disk (their
    output gains ``"cached": True`` and carries no spans); the rest run
    via :func:`run_tasks` on a pool when ``jobs > 1`` or an ``executor``
    is supplied, in-process otherwise, and their stripped outputs are
    stored.  Outputs always come back in payload order, so the merge the
    caller performs is identical no matter which items were cached, pooled
    or re-run serially.
    """
    results: List[Optional[Dict]] = [None] * len(payloads)
    missing: List[int] = []
    if cache is not None and keys is not None:
        for index in range(len(payloads)):
            value = cache.get(stage, keys[index])
            if value is not None:
                output = dict(value)
                output["cached"] = True
                results[index] = output
            else:
                missing.append(index)
    else:
        missing = list(range(len(payloads)))
    if missing:
        miss_payloads = [payloads[index] for index in missing]
        if jobs > 1 or executor is not None:
            with _pool(jobs, executor) as pool:
                outputs = run_tasks(worker, miss_payloads, pool,
                                    policy=policy)
        else:
            outputs = [worker(payload) for payload in miss_payloads]
        for index, output in zip(missing, outputs):
            results[index] = output
            if cache is not None and keys is not None:
                cache.put(stage, keys[index], _cacheable(output))
    return results


def adopt_spans(tracer: Optional[SpanTracer], output: Dict, name: str,
                **attrs) -> None:
    """Fold one item's spans into ``tracer`` in merge order.

    A live output's worker spans are adopted; a cache hit gets a single
    ``name`` marker span (:meth:`SpanTracer.marker`) with ``attrs``, the
    attrs of the live span it stands in for, instead.
    """
    if tracer is None:
        return
    if output.get("cached"):
        tracer.marker(name, **attrs)
    elif output["spans"]:
        tracer.adopt(output["spans"])


def _verify_items(worker, stage: str, spec: ProgramSpec, field: str,
                  items: Sequence[Dict], sweep) -> List[Dict]:
    """Fan one verification stage's item payloads out through ``sweep``;
    outputs in order.

    Each payload is the spec's verification config plus the item under
    ``field``; everything but the item's index keys its cache entry.
    """
    payloads = [
        {
            "spec": spec.name,
            "entry": spec.entry,
            "inputs": spec.workload_inputs,
            "seeds": list(spec.verify_seeds),
            "max_steps": spec.max_steps,
            "index": index,
            field: item,
        }
        for index, item in enumerate(items)
    ]
    keys = None
    if sweep.cache is not None:
        module = spec.build()
        keys = [
            sweep.cache.key(stage, module=module, **{
                key: value for key, value in payload.items()
                if key != "index"
            })
            for payload in payloads
        ]
    return sweep.tasks(worker, payloads, stage, keys)


# ---------------------------------------------------------------------------
# stage 3: per-report race verification


def _race_verify_worker(payload: Dict) -> Dict:
    spec = _cached_spec(payload["spec"])
    report = report_from_payload(spec.build(), payload["report"])
    tracer = SpanTracer()
    verification = race_verifier_for(spec, tracer).verify(report)
    hints = verification.hints
    return {
        "index": payload["index"],
        "verified": verification.verified,
        "runs_used": verification.runs_used,
        "livelocks_resolved": verification.livelocks_resolved,
        "vm_steps": verification.vm_steps,
        "runs_stopped_early": verification.runs_stopped_early,
        "spans": tracer.export_payload(),
        "hints": None if hints is None else {
            "variable": hints.variable,
            "value_type": hints.value_type,
            "read_value": hints.read_value,
            "write_value": hints.write_value,
            "null_write": hints.null_write,
            "address": hints.address,
        },
    }


def race_verifier_for(spec: ProgramSpec,
                      tracer: Optional[SpanTracer] = None
                      ) -> DynamicRaceVerifier:
    """The race verifier for ``spec``: the serial path's and each worker's."""
    return DynamicRaceVerifier(
        spec.build(), entry=spec.entry, inputs=spec.workload_inputs,
        seeds=spec.verify_seeds, max_steps=spec.max_steps,
        vm_factory=lambda seed: spec.make_vm(seed),
        tracer=tracer,
    )


def verify_races_batch(spec: ProgramSpec, reports: Sequence[RaceReport],
                       sweep) -> List[RaceVerification]:
    """Verify each report in its own worker; results keep report order.

    ``sweep`` (:class:`repro.owl.sweep.Sweep`) is the run's execution
    context: its pool, cache and batch policy run the items, and its
    tracer gets one ``verify_report`` span per report, in report order,
    on every path.
    """
    reports = list(reports)
    if not reports:
        return []
    if not sweep.pooled(can_parallelize(spec)):
        outcomes = race_verifier_for(spec, sweep.tracer).verify_all(reports)
    else:
        outputs = _verify_items(
            _race_verify_worker, "race_verify", spec, "report",
            [report_to_payload(report) for report in reports], sweep,
        )
        outcomes = []
        for report, output in zip(reports, outputs):  # report order, always
            hints = (
                SecurityHints(**output["hints"])
                if output["hints"] is not None else None
            )
            if output["verified"]:
                report.tags[DynamicRaceVerifier.TAG] = hints
            verification = RaceVerification(
                report, output["verified"], hints, output["runs_used"],
                output["livelocks_resolved"],
            )
            verification.vm_steps = output["vm_steps"]
            verification.runs_stopped_early = output["runs_stopped_early"]
            outcomes.append(verification)
            adopt_spans(sweep.tracer, output, "verify_report",
                        report=report.uid, variable=report.variable,
                        verified=output["verified"],
                        runs_used=output["runs_used"],
                        livelocks_resolved=output["livelocks_resolved"])
    return outcomes


# ---------------------------------------------------------------------------
# stage 5: per-vulnerability verification


def _vuln_verify_worker(payload: Dict) -> Dict:
    spec = _cached_spec(payload["spec"])
    vulnerability = vuln_from_payload(spec.build(), payload["vuln"])
    tracer = SpanTracer()
    verifier, _ = vuln_verifier_for(spec, vulnerability, tracer)
    verification = verifier.verify(vulnerability)
    return {
        "index": payload["index"],
        "site_reached": verification.site_reached,
        "attack_realized": verification.attack_realized,
        "diverged": [branch.uid or 0 for branch in verification.diverged_branches],
        "faults": [kind.value for kind in verification.fault_kinds],
        "runs_used": verification.runs_used,
        "vm_steps": verification.vm_steps,
        "spans": tracer.export_payload(),
    }


def verify_vulns_batch(
    spec: ProgramSpec, vulnerabilities: Sequence, sweep,
) -> List[Tuple[VulnVerification, Optional[AttackGroundTruth]]]:
    """Verify each vulnerability in its own worker; results keep input order.

    Ground truth is matched *inside* the worker (by site location against
    the registry spec's attacks — deterministic), so subtle inputs, racing
    order and attack predicates never cross the process boundary; the
    parent re-matches against its own spec for the returned pairing.
    ``sweep`` is the execution context, as for :func:`verify_races_batch`;
    its tracer gets one ``verify_vulnerability`` span per vulnerability,
    in input order, on every path.
    """
    vulnerabilities = list(vulnerabilities)
    if not vulnerabilities:
        return []
    if not sweep.pooled(can_parallelize(spec)):
        outcomes = [
            _verify_vuln_serial(spec, vulnerability, tracer=sweep.tracer)
            for vulnerability in vulnerabilities
        ]
    else:
        module = spec.build()
        outputs = _verify_items(
            _vuln_verify_worker, "vuln_verify", spec, "vuln",
            [vuln_to_payload(vulnerability)
             for vulnerability in vulnerabilities], sweep,
        )
        outcomes = []
        # vulnerability order, always
        for vulnerability, output in zip(vulnerabilities, outputs):
            ground_truth = spec.attack_for_site(vulnerability.site.location)
            verification = VulnVerification(
                vulnerability,
                output["site_reached"],
                output["attack_realized"],
                [module.instruction_by_uid(uid)
                 for uid in output["diverged"]],
                [FaultKind(value) for value in output["faults"]],
                output["runs_used"],
            )
            verification.vm_steps = output["vm_steps"]
            outcomes.append((verification, ground_truth))
            adopt_spans(sweep.tracer, output, "verify_vulnerability",
                        site=str(vulnerability.site.location),
                        site_type=vulnerability.site_type.value,
                        site_reached=output["site_reached"],
                        attack_realized=output["attack_realized"],
                        runs_used=output["runs_used"])
    return outcomes


def vuln_verifier_for(
    spec: ProgramSpec, vulnerability, tracer: Optional[SpanTracer] = None,
) -> Tuple[DynamicVulnerabilityVerifier, Optional[AttackGroundTruth]]:
    """The verifier for one vulnerability (the serial path's and each
    worker's), with the ground truth it was configured from."""
    ground_truth = spec.attack_for_site(vulnerability.site.location)
    inputs = (
        ground_truth.subtle_inputs if ground_truth is not None
        else spec.workload_inputs
    )
    verifier = DynamicVulnerabilityVerifier(
        spec.build(), entry=spec.entry, inputs=inputs,
        seeds=spec.verify_seeds, max_steps=spec.max_steps,
        vm_factory=lambda seed, _inputs=inputs: spec.make_vm(
            seed, inputs=_inputs,
        ),
        attack_predicate=(
            ground_truth.predicate if ground_truth is not None else None
        ),
        racing_order=(
            (ground_truth.racing_order, "") if ground_truth is not None
            else None
        ),
        tracer=tracer,
    )
    return verifier, ground_truth


def _verify_vuln_serial(
    spec: ProgramSpec, vulnerability, tracer: Optional[SpanTracer] = None,
) -> Tuple[VulnVerification, Optional[AttackGroundTruth]]:
    """One vulnerability through the serial path."""
    verifier, ground_truth = vuln_verifier_for(spec, vulnerability, tracer)
    return verifier.verify(vulnerability), ground_truth
