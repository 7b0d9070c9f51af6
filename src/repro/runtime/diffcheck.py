"""The differential-execution oracle guarding the VM hot path.

The interpreter's hot path is optimized (a compiled op per instruction
from :mod:`repro.runtime.fuse`, memoized call-stack snapshots, lazy
memoized access descriptions, repeated-address block lookup caching — see
:mod:`repro.runtime.interpreter`), and a perf rewrite is only safe if
execution semantics are provably unchanged.  This module provides the
proof obligation: it executes the same program twice — once with every
optimization disabled (``reference``) and once as shipped
(``optimized``) — and asserts that the two executions are *bit-identical*
in everything the rest of OWL can observe:

- the full trace-event stream (access events with thread/step/address/size/
  value/atomicity/call stack/variable description, sync, thread lifecycle,
  alloc/free and external-call events),
- the fault list (including :attr:`Memory.recorded_faults`),
- the execution result (reason, step count, exit code),
- the race-report sets a detector derives from the trace, and
- the pipeline's Table-3 counters (``StageCounters.parity_dict()``).

:func:`diff_debugger` covers debugger-driven execution: it runs the race
and vulnerability verifiers on every report of a pipeline run, once in
reference mode and once as shipped, and holds their outcomes and the
breakpoint halts of every run equal.  The shipped race verifier may end a
run early (:mod:`repro.ir.reach`), so its halts need only be a prefix of
the reference run's; and its runs take over the trunks the pipeline's
race verification shares (:class:`repro.owl.race_verifier.Trunk`), so
each such run is held equal to the reference side's fresh run.

The optimized VM fuses superinstructions wherever its scheduler commits a
run (:mod:`repro.runtime.fuse`), and skips a read-only loop trace's
iterations once it reaches a fixed point: :class:`TraceRecorder` accepts
every repeat and records each event it stands for.  With ``fuse=True`` a
third, stepwise leg (:func:`~repro.runtime.interpreter.stepwise_execution`)
runs beside it, under the random scheduler and under the spec's own
detector family, and must be bit-identical to it, event by event.

Both configurations share seeds and schedulers, so any semantic drift in an
optimization shows up as a first-divergence record rather than a silently
different race report three stages later.  ``tools/diff_oracle.py`` drives
this over all registered apps and a seed sweep, and records the reference
vs optimized steps/s in the metrics JSON's ``diff_oracle`` block.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.events import (
    AccessEvent,
    AllocEvent,
    ExternalCallEvent,
    FreeEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.interpreter import (
    VM,
    ExecutionResult,
    reference_execution,
    stepwise_execution,
)


class TraceRecorder(TraceObserver):
    """Normalizes every trace event into a comparable tuple.

    The tuples carry only plain values (ints, strings, nested tuples), so
    two recorders can be compared field by field regardless of which VM,
    module instance or memory produced them.  It accepts every repeat of
    a skipped loop and records each event the repeat stands for, with its
    own step, in stepwise order (the base ``on_repeats``).
    """

    def __init__(self):
        self.records: List[Tuple] = []

    def accepts_repeat(self, event: AccessEvent) -> bool:
        return True

    def on_access(self, event: AccessEvent) -> None:
        self.records.append((
            "access", event.thread_id, event.step, event.address, event.size,
            bool(event.is_write), event.value, bool(event.is_atomic),
            event.call_stack, event.variable,
        ))

    def on_sync(self, event: SyncEvent) -> None:
        self.records.append((
            "sync", event.thread_id, event.step, event.kind, event.address,
        ))

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        self.records.append((
            "thread", event.thread_id, event.step, event.kind,
            event.other_thread_id,
        ))

    def on_alloc(self, event: AllocEvent) -> None:
        self.records.append((
            "alloc", event.thread_id, event.step, event.address, event.size,
        ))

    def on_free(self, event: FreeEvent) -> None:
        self.records.append((
            "free", event.thread_id, event.step, event.address,
        ))

    def on_external_call(self, event: ExternalCallEvent) -> None:
        self.records.append((
            "external", event.thread_id, event.step, event.name,
            event.arguments, event.call_stack,
        ))


def _normalize_fault(fault) -> Tuple:
    return (
        fault.kind.value, fault.thread_id, fault.address, fault.step,
        fault.message, tuple(fault.call_stack),
    )


class ExecutionFingerprint:
    """Everything observable about one execution, in comparable form."""

    #: field comparison order; the first differing field is reported
    FIELDS = ("events", "faults", "recorded_faults", "reason", "exit_code",
              "steps")

    def __init__(self, program: str, seed: int, mode: str,
                 events: List[Tuple], faults: List[Tuple],
                 recorded_faults: List[Tuple], reason: str, steps: int,
                 exit_code: Optional[int], wall_seconds: float):
        self.program = program
        self.seed = seed
        self.mode = mode
        self.events = events
        self.faults = faults
        self.recorded_faults = recorded_faults
        self.reason = reason
        self.steps = steps
        self.exit_code = exit_code
        self.wall_seconds = wall_seconds
        #: steps that ran fused, and those of them a loop at a fixed
        #: point skipped (observational, not compared)
        self.fused_steps = 0
        self.skipped_steps = 0

    def __repr__(self) -> str:
        return "<ExecutionFingerprint %s seed=%d %s %d events %d steps>" % (
            self.program, self.seed, self.mode, len(self.events), self.steps,
        )


class Divergence:
    """The first observable difference between two executions."""

    def __init__(self, program: str, seed: Optional[int], field: str,
                 index: Optional[int], reference, optimized):
        self.program = program
        self.seed = seed
        self.field = field
        self.index = index
        self.reference = reference
        self.optimized = optimized

    def describe(self) -> str:
        where = self.field if self.index is None else \
            "%s[%d]" % (self.field, self.index)
        return "%s seed=%s diverged at %s:\n  reference: %r\n  optimized: %r" % (
            self.program, self.seed, where, self.reference, self.optimized,
        )

    def __repr__(self) -> str:
        return "<Divergence %s seed=%s %s>" % (
            self.program, self.seed, self.field,
        )


def _first_list_divergence(program, seed, field, ref: List, opt: List
                           ) -> Optional[Divergence]:
    for index, (a, b) in enumerate(zip(ref, opt)):
        if a != b:
            return Divergence(program, seed, field, index, a, b)
    if len(ref) != len(opt):
        index = min(len(ref), len(opt))
        longer = ref if len(ref) > len(opt) else opt
        missing = "<absent: %d vs %d records>" % (len(ref), len(opt))
        if longer is ref:
            return Divergence(program, seed, field, index, longer[index], missing)
        return Divergence(program, seed, field, index, missing, longer[index])
    return None


def compare_fingerprints(reference: ExecutionFingerprint,
                         optimized: ExecutionFingerprint
                         ) -> Optional[Divergence]:
    """First divergence between a reference and an optimized execution."""
    program, seed = reference.program, reference.seed
    for field in ExecutionFingerprint.FIELDS:
        ref_value = getattr(reference, field)
        opt_value = getattr(optimized, field)
        if isinstance(ref_value, list):
            divergence = _first_list_divergence(
                program, seed, field, ref_value, opt_value)
            if divergence is not None:
                return divergence
        elif ref_value != opt_value:
            return Divergence(program, seed, field, None, ref_value, opt_value)
    return None


def fingerprint_run(spec, seed: int, reference: bool = False,
                    max_steps: Optional[int] = None, stepwise: bool = False,
                    family: str = "random") -> ExecutionFingerprint:
    """Execute ``spec`` once under ``family``'s scheduler and record it.

    ``reference`` runs under :func:`reference_execution`, ``stepwise``
    under :func:`stepwise_execution`; with neither the VM runs as shipped,
    fusing wherever its scheduler commits a run, and the fingerprint's
    ``fused_steps`` counts the steps that ran fused.  ``family`` is a
    schedule family (``"random"`` or ``"pct"``), built exactly as the
    spec's detector sweep builds its schedulers.  ``skipped_steps``
    counts the fused steps a loop at a fixed point skipped.
    """
    from repro.detectors.seed import make_scheduler
    from repro.owl.integration import spec_job

    mode = ("reference" if reference else
            "stepwise" if stepwise else "optimized")
    job = spec_job(spec).replace(seed=seed, scheduler=family)
    with (reference_execution() if reference else
          stepwise_execution() if stepwise else nullcontext()):
        vm = spec.make_vm(seed, scheduler=make_scheduler(job),
                          max_steps=max_steps)
    engine = vm.fuse_engine
    marks = engine.counters() if engine is not None else None
    recorder = TraceRecorder()
    vm.add_observer(recorder)
    started = time.perf_counter()
    vm.start(spec.entry)
    result = vm.run()
    wall = time.perf_counter() - started
    fingerprint = ExecutionFingerprint(
        program=spec.name,
        seed=seed,
        mode=mode,
        events=recorder.records,
        faults=[_normalize_fault(fault) for fault in vm.faults],
        recorded_faults=[_normalize_fault(fault)
                         for fault in vm.memory.recorded_faults],
        reason=result.reason,
        steps=result.steps,
        exit_code=result.exit_code,
        wall_seconds=wall,
    )
    if engine is not None:
        fingerprint.fused_steps = engine.fused_steps - marks["fused_steps"]
        fingerprint.skipped_steps = (engine.skipped_steps
                                     - marks["skipped_steps"])
    return fingerprint


def diff_seed(spec, seed: int,
              max_steps: Optional[int] = None
              ) -> Tuple[Optional[Divergence], ExecutionFingerprint,
                         ExecutionFingerprint]:
    """Compare one seed's reference and optimized executions."""
    reference = fingerprint_run(spec, seed, reference=True,
                                max_steps=max_steps)
    optimized = fingerprint_run(spec, seed, reference=False,
                                max_steps=max_steps)
    return compare_fingerprints(reference, optimized), reference, optimized


class ProgramDiff:
    """Oracle outcome for one program over a seed sweep.

    The sweep always compares reference vs optimized (as shipped, which
    fuses wherever its scheduler commits a run).  With ``fuse=True``
    (``diff_program``/``diff_reports``/``diff_counters``) a stepwise leg
    runs beside every optimized one and is held bit-identical to it —
    under the random scheduler and under the spec's own detector family —
    and each fused family must actually have fused.
    """

    def __init__(self, program: str, seeds: Sequence[int]):
        self.program = program
        self.seeds = list(seeds)
        self.divergences: List[Divergence] = []
        self.reference_steps = 0
        self.reference_seconds = 0.0
        self.optimized_steps = 0
        self.optimized_seconds = 0.0
        #: fused-vs-stepwise legs (populated only when the sweep ran with
        #: fuse): the stepwise random leg's cost, and the steps each
        #: family's optimized leg ran fused and, of those, skipped
        self.fused = False
        self.stepwise_steps = 0
        self.stepwise_seconds = 0.0
        self.fused_steps: Dict[str, int] = {}
        self.skipped_steps: Dict[str, int] = {}
        #: sorted race-report static keys per mode (diff_reports)
        self.reference_report_keys: Optional[List[Tuple[int, int]]] = None
        self.optimized_report_keys: Optional[List[Tuple[int, int]]] = None
        self.stepwise_report_keys: Optional[List[Tuple[int, int]]] = None
        #: StageCounters.parity_dict() per mode (diff_counters)
        self.reference_counters: Optional[Dict] = None
        self.optimized_counters: Optional[Dict] = None
        self.stepwise_counters: Optional[Dict] = None
        #: the debugger-driven leg (populated only by diff_debugger)
        self.debugger = False
        self.debugger_items = 0
        self.debugger_runs = 0
        #: shipped runs that took over a trunk, and those that started
        #: from step 0 (every vulnerability run among them)
        self.debugger_trunk_runs = 0
        self.debugger_fresh_runs = 0
        self.debugger_reference_steps = 0
        self.debugger_shipped_steps = 0

    @property
    def identical(self) -> bool:
        return (
            not self.divergences
            and self.reference_report_keys == self.optimized_report_keys
            and self.reference_counters == self.optimized_counters
            and (not self.fused or (
                self.optimized_report_keys == self.stepwise_report_keys
                and self.optimized_counters == self.stepwise_counters
            ))
        )

    @property
    def reference_steps_per_second(self) -> float:
        if self.reference_seconds <= 0.0:
            return 0.0
        return self.reference_steps / self.reference_seconds

    @property
    def optimized_steps_per_second(self) -> float:
        if self.optimized_seconds <= 0.0:
            return 0.0
        return self.optimized_steps / self.optimized_seconds

    @property
    def speedup(self) -> float:
        if self.reference_steps_per_second <= 0.0:
            return 0.0
        return self.optimized_steps_per_second / self.reference_steps_per_second

    @property
    def stepwise_steps_per_second(self) -> float:
        if self.stepwise_seconds <= 0.0:
            return 0.0
        return self.stepwise_steps / self.stepwise_seconds

    @property
    def fused_speedup(self) -> float:
        """Optimized over stepwise steps/s — the superinstruction win."""
        if self.stepwise_steps_per_second <= 0.0:
            return 0.0
        return self.optimized_steps_per_second / self.stepwise_steps_per_second

    def as_dict(self) -> Dict:
        payload = {
            "program": self.program,
            "seeds": len(self.seeds),
            "divergences": len(self.divergences),
            "reference_steps_per_second":
                round(self.reference_steps_per_second, 1),
            "optimized_steps_per_second":
                round(self.optimized_steps_per_second, 1),
            "speedup": round(self.speedup, 3),
            "report_sets_identical":
                self.reference_report_keys == self.optimized_report_keys,
            "counters_identical":
                self.reference_counters == self.optimized_counters,
        }
        if self.debugger:
            payload["debugger_items"] = self.debugger_items
            payload["debugger_runs"] = self.debugger_runs
            payload["debugger_trunk_runs"] = self.debugger_trunk_runs
            payload["debugger_fresh_runs"] = self.debugger_fresh_runs
            payload["debugger_reference_steps"] = \
                self.debugger_reference_steps
            payload["debugger_shipped_steps"] = self.debugger_shipped_steps
        if self.fused:
            payload["stepwise_steps_per_second"] = round(
                self.stepwise_steps_per_second, 1)
            payload["fused_speedup"] = round(self.fused_speedup, 3)
            payload["fused_steps"] = dict(sorted(self.fused_steps.items()))
            payload["skipped_steps"] = dict(
                sorted(self.skipped_steps.items()))
            payload["fused_report_sets_identical"] = (
                self.optimized_report_keys == self.stepwise_report_keys)
            payload["fused_counters_identical"] = (
                self.optimized_counters == self.stepwise_counters)
        return payload

    def __repr__(self) -> str:
        return "<ProgramDiff %s seeds=%d divergences=%d speedup=%.2fx>" % (
            self.program, len(self.seeds), len(self.divergences), self.speedup,
        )


def diff_program(spec, seeds: Sequence[int] = range(10),
                 max_steps: Optional[int] = None,
                 stop_on_divergence: bool = False,
                 fuse: bool = False) -> ProgramDiff:
    """Run the event-stream oracle for one program over a seed sweep.

    With ``fuse=True`` each seed additionally runs stepwise, and the
    optimized (fused) run must be bit-identical to it; then both run
    again under the spec's own detector family (PCT for SKI specs) when
    that is not random.  Every family's optimized runs must have fused at
    least one step over the sweep, or the comparison proved nothing and
    counts as a ``fused_steps`` divergence.
    """
    from repro.owl.integration import spec_job

    diff = ProgramDiff(spec.name, seeds)
    diff.fused = bool(fuse)
    if fuse:
        diff.fused_steps = {"random": 0, spec_job(spec).family: 0}
        diff.skipped_steps = dict.fromkeys(diff.fused_steps, 0)
    for seed in diff.seeds:
        divergence, reference, optimized = diff_seed(
            spec, seed, max_steps=max_steps)
        diff.reference_steps += reference.steps
        diff.reference_seconds += reference.wall_seconds
        diff.optimized_steps += optimized.steps
        diff.optimized_seconds += optimized.wall_seconds
        found = [divergence] if divergence is not None else []
        for family in diff.fused_steps:
            if family != "random":
                optimized = fingerprint_run(spec, seed, max_steps=max_steps,
                                            family=family)
            stepwise = fingerprint_run(spec, seed, max_steps=max_steps,
                                       stepwise=True, family=family)
            if family == "random":
                diff.stepwise_steps += stepwise.steps
                diff.stepwise_seconds += stepwise.wall_seconds
            diff.fused_steps[family] += optimized.fused_steps
            diff.skipped_steps[family] += optimized.skipped_steps
            divergence = compare_fingerprints(stepwise, optimized)
            if divergence is not None:
                divergence.field = "%s.%s" % (family, divergence.field)
                found.append(divergence)
        diff.divergences.extend(found)
        if found and stop_on_divergence:
            break
    for family, steps in diff.fused_steps.items():
        if not steps:
            diff.divergences.append(Divergence(
                spec.name, None, "fused_steps[%s]" % family, None,
                "at least one fused step", steps))
    return diff


def _report_keys(reports) -> List[Tuple[int, int]]:
    return sorted(report.static_key for report in reports)


def diff_reports(spec, diff: Optional[ProgramDiff] = None,
                 fuse: bool = False) -> ProgramDiff:
    """Compare the race-report sets the spec's detector derives per mode
    (with ``fuse``, stepwise too)."""
    from repro.owl.integration import run_detector

    if diff is None:
        diff = ProgramDiff(spec.name, spec.detect_seeds)
    with reference_execution():
        reference_reports, _ = run_detector(spec)
    optimized_reports, _ = run_detector(spec)
    diff.reference_report_keys = _report_keys(reference_reports)
    diff.optimized_report_keys = _report_keys(optimized_reports)
    if diff.reference_report_keys != diff.optimized_report_keys:
        diff.divergences.append(Divergence(
            spec.name, None, "report_set", None,
            diff.reference_report_keys, diff.optimized_report_keys,
        ))
    if fuse:
        diff.fused = True
        with stepwise_execution():
            stepwise_reports, _ = run_detector(spec)
        diff.stepwise_report_keys = _report_keys(stepwise_reports)
        if diff.stepwise_report_keys != diff.optimized_report_keys:
            diff.divergences.append(Divergence(
                spec.name, None, "fused_report_set", None,
                diff.stepwise_report_keys, diff.optimized_report_keys,
            ))
    return diff


def diff_counters(spec, diff: Optional[ProgramDiff] = None,
                  fuse: bool = False) -> ProgramDiff:
    """Compare ``StageCounters.parity_dict()`` of a full pipeline run per
    mode (with ``fuse``, stepwise too)."""
    from repro.owl.pipeline import OwlPipeline

    if diff is None:
        diff = ProgramDiff(spec.name, spec.detect_seeds)
    with reference_execution():
        reference_result = OwlPipeline(spec).run()
    optimized_result = OwlPipeline(spec).run()
    diff.reference_counters = reference_result.counters.parity_dict()
    diff.optimized_counters = optimized_result.counters.parity_dict()
    if diff.reference_counters != diff.optimized_counters:
        diff.divergences.append(Divergence(
            spec.name, None, "stage_counters", None,
            diff.reference_counters, diff.optimized_counters,
        ))
    if fuse:
        diff.fused = True
        with stepwise_execution():
            stepwise_result = OwlPipeline(spec).run()
        diff.stepwise_counters = stepwise_result.counters.parity_dict()
        if diff.stepwise_counters != diff.optimized_counters:
            diff.divergences.append(Divergence(
                spec.name, None, "fused_stage_counters", None,
                diff.stepwise_counters, diff.optimized_counters,
            ))
    return diff


class _RunRecorder:
    """Records each run of the verifications made inside :meth:`recording`.

    A run is a VM on which ``VM.run`` was called, however it was made: by
    the verifier's ``vm_factory``, or as a trunk a race verifier's run took
    over, whose first halt happens in
    :meth:`repro.owl.race_verifier.Trunk.serve`, before the run holds the
    VM.  Per run: every breakpoint return of ``VM.run`` as ``(step,
    ((thread id, pending access), ...))`` for the halted threads, and the
    last reason.
    """

    def __init__(self):
        self.vms: List[VM] = []
        self.halts: List[List[Tuple]] = []
        self.reasons: List[str] = []
        self._runs: Dict[VM, int] = {}

    @contextmanager
    def recording(self):
        run = VM.run

        def recording_run(vm, *args, **kwargs):
            index = self._runs.get(vm)
            if index is None:
                index = self._runs[vm] = len(self.vms)
                self.vms.append(vm)
                self.halts.append([])
                self.reasons.append("")
            result = run(vm, *args, **kwargs)
            self.reasons[index] = result.reason
            if result.reason == ExecutionResult.BREAKPOINT:
                self.halts[index].append((vm.step, tuple(
                    (thread.thread_id, _pending(vm, thread))
                    for thread in vm.debugger.halted_threads())))
            return result

        VM.run = recording_run
        try:
            yield self
        finally:
            VM.run = run

    @property
    def steps(self) -> int:
        return sum(vm.step for vm in self.vms)

    def runs(self) -> List[Tuple]:
        """Per run: its halts, last reason and the step it ended at."""
        return [(halts, reason, vm.step) for vm, halts, reason
                in zip(self.vms, self.halts, self.reasons)]


def _pending(vm: VM, thread) -> Optional[Tuple]:
    access = vm.debugger.pending_access(thread)
    if access is None:
        return None
    return (access.instruction.uid, access.address, access.is_write,
            access.value, access.value_type)


def _recorded(verifier, item, as_reference: bool) -> Tuple:
    """``verifier``'s verification of ``item`` and the recorder of its
    runs, under :func:`reference_execution` when ``as_reference``."""
    with _RunRecorder().recording() as recorder, \
            (reference_execution() if as_reference else nullcontext()):
        return verifier.verify(item), recorder


def _compare_runs(program: str, label: str, reference: _RunRecorder,
                  shipped: _RunRecorder, outcomes: Tuple[List, List]
                  ) -> Optional[Divergence]:
    """Per run: equal outcomes, shipped halts a prefix of the reference's
    (equal when the run caught its race)."""
    if len(reference.halts) != len(shipped.halts):
        return Divergence(program, None, label + ".runs", None,
                          len(reference.halts), len(shipped.halts))
    for run, (ref_halts, opt_halts, ref_outcome, opt_outcome) in enumerate(
            zip(reference.halts, shipped.halts, *outcomes)):
        if ref_outcome != opt_outcome:
            return Divergence(program, None, label + ".run_outcome", run,
                              ref_outcome, opt_outcome)
        if ref_outcome == "caught" or len(opt_halts) > len(ref_halts):
            expected = ref_halts
        else:
            expected = ref_halts[:len(opt_halts)]
        divergence = _first_list_divergence(
            program, None, "%s.halts[run %d]" % (label, run),
            expected, opt_halts)
        if divergence is not None:
            return divergence
    return None


def _race_outcome(verification) -> Tuple:
    hints = verification.hints
    return (verification.verified, verification.runs_used, None if hints is None
            else (hints.variable, hints.value_type, hints.read_value,
                  hints.write_value, hints.null_write, hints.address))


def _race_run_outcomes(verification, recorder: _RunRecorder) -> List[str]:
    runs = len(recorder.vms)
    return ["caught" if verification.verified and run == runs - 1
            else "missed" for run in range(runs)]


def _vuln_run_outcomes(verification, recorder: _RunRecorder) -> List[Tuple]:
    return [(reason, tuple(sorted(fault.kind.value for fault in vm.faults)))
            for vm, reason in zip(recorder.vms, recorder.reasons)]


def diff_debugger(spec, diff: Optional[ProgramDiff] = None) -> ProgramDiff:
    """The debugger-driven oracle (:func:`diff_verifiers`) over every
    report and vulnerability of one pipeline run of ``spec``."""
    from repro.owl.pipeline import OwlPipeline

    result = OwlPipeline(spec).run()
    return diff_verifiers(spec, result.annotated_reports,
                          result.vulnerabilities, diff)


def diff_verifiers(spec, reports: Sequence, vulnerabilities: Sequence = (),
                   diff: Optional[ProgramDiff] = None) -> ProgramDiff:
    """Verify each report and vulnerability in reference mode and as
    shipped, and compare the runs.

    Each race report goes through its item's race verifier three times:
    under :func:`reference_execution`, as shipped with every run fresh,
    and as shipped sharing one set of trunks in report order, as the
    pipeline's runs do.  The reference and trunk-sharing sides must reach
    equal outcomes (verified, runs used, security hints), and each shipped
    run's breakpoint halts must be a prefix of the reference run's (the
    reference side never ends a run early, so this cannot tell where a
    shipped run stopped).  Each trunk-sharing run must be the fresh
    shipped run exactly: every halt, the last reason and the step it
    ended at.  Each vulnerability goes through its item's vulnerability
    verifier in reference mode and as shipped, held to the same outcome
    (realized, site reached, runs used) and halts rules.
    """
    from repro.owl.batch import (
        race_verifier_for,
        verify_job,
        vuln_job,
        vuln_verifier_for,
    )

    if diff is None:
        diff = ProgramDiff(spec.name, [])
    diff.debugger = True
    trunks: Dict = {}

    def compare(label, reference, shipped, outcome, run_outcomes
                ) -> Optional[Divergence]:
        """Count the item; the first divergence of ``shipped`` from
        ``reference``, each a ``(verification, recorder)`` pair."""
        (ref, ref_runs), (opt, opt_runs) = reference, shipped
        diff.debugger_items += 1
        diff.debugger_runs += len(opt_runs.vms)
        diff.debugger_reference_steps += ref_runs.steps
        diff.debugger_shipped_steps += opt_runs.steps
        if outcome(ref) != outcome(opt):
            return Divergence(spec.name, None, label + ".outcome", None,
                              outcome(ref), outcome(opt))
        return _compare_runs(
            spec.name, label, ref_runs, opt_runs,
            (run_outcomes(ref, ref_runs), run_outcomes(opt, opt_runs)))

    found: List[Optional[Divergence]] = []
    for report in reports:
        label = "race[%s]" % report.uid
        reference, fresh, shipped = (
            _recorded(race_verifier_for(spec, verify_job(spec), trunks=shared),
                      report, as_reference)
            for as_reference, shared in ((True, None), (False, None),
                                         (False, trunks)))
        found.append(
            compare(label, reference, shipped, _race_outcome,
                    _race_run_outcomes)
            or _first_list_divergence(spec.name, None, label + ".trunk_runs",
                                      fresh[1].runs(), shipped[1].runs()))
    for vulnerability in vulnerabilities:
        reference, shipped = (
            _recorded(vuln_verifier_for(spec, vuln_job(spec, vulnerability),
                                        vulnerability),
                      vulnerability, as_reference)
            for as_reference in (True, False))
        found.append(compare(
            "vuln[%s]" % vulnerability.site.location, reference, shipped,
            lambda v: (v.attack_realized, v.site_reached, v.runs_used),
            _vuln_run_outcomes))
    diff.divergences.extend(item for item in found if item is not None)
    diff.debugger_trunk_runs = sum(trunk.served for trunk in trunks.values())
    diff.debugger_fresh_runs = diff.debugger_runs - diff.debugger_trunk_runs
    return diff


def benchmark_fused(spec, seeds: Sequence[int] = range(10),
                    max_steps: Optional[int] = None,
                    quantum: int = 50) -> Dict:
    """Measure the fused-vs-stepwise steps/s ratio where fusion can act.

    ``RandomScheduler`` fuses only while one thread is runnable, so the
    oracle sweep's ``fused_speedup`` proves parity, not performance.  The
    speedup floor is therefore measured under
    :class:`~repro.runtime.scheduler.RoundRobinScheduler`, whose quantum
    gives ``run_length`` real no-preempt windows.  Every VM runs the one
    module, so plans amortize across seeds exactly as they do in a
    detector sweep; ``compiled_blocks`` and ``fused_step_share`` are this
    benchmark's deltas of the module engine's counters.
    """
    from repro.runtime.fuse import fuse_engine
    from repro.runtime.scheduler import RoundRobinScheduler

    seeds = list(seeds)
    module = spec.build()
    engine = fuse_engine(module)
    marks = engine.counters()
    totals = {"stepwise": [0, 0.0], "fused": [0, 0.0]}
    for mode, context in (("stepwise", stepwise_execution),
                          ("fused", nullcontext)):
        for seed in seeds:
            with context():
                vm = spec.make_vm(
                    seed, scheduler=RoundRobinScheduler(quantum=quantum),
                    max_steps=max_steps, module=module)
            started = time.perf_counter()
            vm.start(spec.entry)
            result = vm.run()
            totals[mode][0] += result.steps
            totals[mode][1] += time.perf_counter() - started
    stepwise_sps = (totals["stepwise"][0] / totals["stepwise"][1]
                    if totals["stepwise"][1] > 0 else 0.0)
    fused_sps = (totals["fused"][0] / totals["fused"][1]
                 if totals["fused"][1] > 0 else 0.0)
    counters = {name: value - marks[name]
                for name, value in engine.counters().items()}
    fused_steps = totals["fused"][0]
    return {
        "program": spec.name,
        "scheduler": "round_robin",
        "quantum": quantum,
        "seeds": len(seeds),
        "stepwise_steps_per_second": round(stepwise_sps, 1),
        "fused_steps_per_second": round(fused_sps, 1),
        "fused_speedup": round(fused_sps / stepwise_sps, 3)
        if stepwise_sps > 0 else 0.0,
        "fused_step_share": round(
            counters["fused_steps"] / fused_steps, 4) if fused_steps else 0.0,
        "compiled_blocks": counters["compiled"],
    }
