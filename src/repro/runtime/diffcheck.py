"""The differential-execution oracle guarding the VM hot path.

The interpreter's hot path is optimized (per-class dispatch table, memoized
call-stack snapshots, lazy memoized access descriptions, repeated-address
block lookup caching — see :mod:`repro.runtime.interpreter`), and a perf
rewrite is only safe if execution semantics are provably unchanged.  This
module provides the proof obligation: it executes the same program twice —
once with every optimization disabled (``reference``) and once as shipped
(``optimized``) — and asserts that the two executions are *bit-identical*
in everything the rest of OWL can observe:

- the full trace-event stream (access events with thread/step/address/size/
  value/atomicity/call stack/variable description, sync, thread lifecycle,
  alloc/free and external-call events),
- the fault list (including :attr:`Memory.recorded_faults`),
- the execution result (reason, step count, exit code),
- the race-report sets a detector derives from the trace, and
- the pipeline's Table-3 counters (``StageCounters.parity_dict()``).

Both configurations share seeds and schedulers, so any semantic drift in an
optimization shows up as a first-divergence record rather than a silently
different race report three stages later.  ``tools/diff_oracle.py`` drives
this over all registered apps and a seed sweep, and records the reference
vs optimized steps/s in the metrics JSON's ``diff_oracle`` block.
"""

from __future__ import annotations

import time
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
from repro.runtime.interpreter import VM, reference_execution
from repro.runtime.scheduler import RandomScheduler


class TraceRecorder(TraceObserver):
    """Normalizes every trace event into a comparable tuple.

    The tuples carry only plain values (ints, strings, nested tuples), so
    two recorders can be compared field by field regardless of which VM,
    module instance or memory produced them.
    """

    def __init__(self):
        self.records: List[Tuple] = []

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


def fingerprint_run(spec, seed: int, reference: bool,
                    max_steps: Optional[int] = None,
                    fuse=False) -> ExecutionFingerprint:
    """Execute ``spec`` once under ``RandomScheduler(seed)`` and record it.

    ``fuse`` truthy runs the optimized VM with superinstruction fusion
    (:mod:`repro.runtime.fuse`) — the oracle's third mode; ``reference``
    and ``fuse`` are mutually exclusive.  Pass a shared
    :class:`~repro.runtime.fuse.FuseEngine` instead of ``True`` to amortize
    block compiles across a seed sweep (what ``diff_program`` does).
    """
    vm = VM(
        spec.build(),
        scheduler=RandomScheduler(seed),
        world=spec.initial_world() if spec.initial_world is not None else None,
        inputs=spec.workload_inputs,
        max_steps=max_steps or spec.max_steps,
        seed=seed,
        reference=reference,
        fuse=fuse,
    )
    recorder = TraceRecorder()
    vm.add_observer(recorder)
    started = time.perf_counter()
    vm.start(spec.entry)
    result = vm.run()
    wall = time.perf_counter() - started
    return ExecutionFingerprint(
        program=spec.name,
        seed=seed,
        mode=("reference" if reference else
              "fused" if fuse else "optimized"),
        events=recorder.records,
        faults=[_normalize_fault(fault) for fault in vm.faults],
        recorded_faults=[_normalize_fault(fault)
                         for fault in vm.memory.recorded_faults],
        reason=result.reason,
        steps=result.steps,
        exit_code=result.exit_code,
        wall_seconds=wall,
    )


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

    The sweep always compares reference vs optimized; with ``fuse=True``
    (``diff_program``/``diff_reports``/``diff_counters``) a third, fused
    leg runs per seed and is held bit-identical to the optimized one.
    """

    def __init__(self, program: str, seeds: Sequence[int]):
        self.program = program
        self.seeds = list(seeds)
        self.divergences: List[Divergence] = []
        self.reference_steps = 0
        self.reference_seconds = 0.0
        self.optimized_steps = 0
        self.optimized_seconds = 0.0
        #: fused-mode leg (populated only when the sweep ran with fuse)
        self.fused = False
        self.fused_steps = 0
        self.fused_seconds = 0.0
        #: sorted race-report static keys per mode (diff_reports)
        self.reference_report_keys: Optional[List[Tuple[int, int]]] = None
        self.optimized_report_keys: Optional[List[Tuple[int, int]]] = None
        self.fused_report_keys: Optional[List[Tuple[int, int]]] = None
        #: StageCounters.parity_dict() per mode (diff_counters)
        self.reference_counters: Optional[Dict] = None
        self.optimized_counters: Optional[Dict] = None
        self.fused_counters: Optional[Dict] = None

    @property
    def identical(self) -> bool:
        return (
            not self.divergences
            and self.reference_report_keys == self.optimized_report_keys
            and self.reference_counters == self.optimized_counters
            and (not self.fused or (
                self.optimized_report_keys == self.fused_report_keys
                and self.optimized_counters == self.fused_counters
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
    def fused_steps_per_second(self) -> float:
        if self.fused_seconds <= 0.0:
            return 0.0
        return self.fused_steps / self.fused_seconds

    @property
    def fused_speedup(self) -> float:
        """Fused over *optimized* steps/s — the superinstruction win."""
        if self.optimized_steps_per_second <= 0.0:
            return 0.0
        return self.fused_steps_per_second / self.optimized_steps_per_second

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
        if self.fused:
            payload["fused_steps_per_second"] = round(
                self.fused_steps_per_second, 1)
            payload["fused_speedup"] = round(self.fused_speedup, 3)
            payload["fused_report_sets_identical"] = (
                self.optimized_report_keys == self.fused_report_keys)
            payload["fused_counters_identical"] = (
                self.optimized_counters == self.fused_counters)
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

    With ``fuse=True`` each seed additionally runs a third, fused
    execution (superinstructions on), which must be bit-identical to the
    optimized one; fused divergences carry mode "fused" fingerprints.
    """
    diff = ProgramDiff(spec.name, seeds)
    diff.fused = bool(fuse)
    engine = None
    if fuse:
        # One engine across the sweep: block compiles amortize exactly as
        # they do in run_tsan/run_ski's serial paths, so the fused steps/s
        # reflect steady-state fusion rather than per-seed warmup.
        from repro.runtime.fuse import FuseEngine

        engine = FuseEngine()
    for seed in diff.seeds:
        divergence, reference, optimized = diff_seed(
            spec, seed, max_steps=max_steps)
        diff.reference_steps += reference.steps
        diff.reference_seconds += reference.wall_seconds
        diff.optimized_steps += optimized.steps
        diff.optimized_seconds += optimized.wall_seconds
        if divergence is not None:
            diff.divergences.append(divergence)
            if stop_on_divergence:
                break
        if fuse:
            fused = fingerprint_run(spec, seed, reference=False,
                                    max_steps=max_steps, fuse=engine)
            diff.fused_steps += fused.steps
            diff.fused_seconds += fused.wall_seconds
            fused_divergence = compare_fingerprints(optimized, fused)
            if fused_divergence is not None:
                diff.divergences.append(fused_divergence)
                if stop_on_divergence:
                    break
    return diff


def _report_keys(reports) -> List[Tuple[int, int]]:
    return sorted(report.static_key for report in reports)


def diff_reports(spec, diff: Optional[ProgramDiff] = None,
                 fuse: bool = False) -> ProgramDiff:
    """Compare the race-report sets the spec's detector derives per mode."""
    from repro.detectors.seed import SeedJob
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
        fused_reports, _ = run_detector(spec, options=SeedJob(fuse=True))
        diff.fused_report_keys = _report_keys(fused_reports)
        if diff.optimized_report_keys != diff.fused_report_keys:
            diff.divergences.append(Divergence(
                spec.name, None, "fused_report_set", None,
                diff.optimized_report_keys, diff.fused_report_keys,
            ))
    return diff


def diff_counters(spec, diff: Optional[ProgramDiff] = None,
                  fuse: bool = False) -> ProgramDiff:
    """Compare ``StageCounters.parity_dict()`` of a full pipeline run."""
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
        fused_result = OwlPipeline(spec, fuse=True).run()
        diff.fused_counters = fused_result.counters.parity_dict()
        if diff.optimized_counters != diff.fused_counters:
            diff.divergences.append(Divergence(
                spec.name, None, "fused_stage_counters", None,
                diff.optimized_counters, diff.fused_counters,
            ))
    return diff


def diff_record_replay(spec, seeds: Sequence[int] = range(3),
                       max_steps: Optional[int] = None) -> List[Divergence]:
    """Assert the fuse flag is inert through the record/replay backbone.

    Recording and replay schedulers force ``run_length`` to 1 (recording
    must log one entry per decision; replay consumes one recorded decision
    per step), so requesting fusion there must change nothing.  Each seed
    is recorded twice — fuse off and fuse on — and the two
    :class:`~repro.runtime.record.ScheduleLog` payloads plus recorded
    fingerprints must match; the fuse-off log is then replayed both ways
    and the replayed fingerprints must match too.  Returns every
    divergence found (empty list = identical).
    """
    from repro.runtime.record import record_seed, replay_log

    module = spec.build()
    world = spec.initial_world
    divergences: List[Divergence] = []
    for seed in seeds:
        runs = {}
        for fuse in (False, True):
            log, _result, fingerprint = record_seed(
                module, seed, entry=spec.entry, inputs=spec.workload_inputs,
                max_steps=max_steps or spec.max_steps,
                scheduler=RandomScheduler(seed),
                world=world() if world is not None else None,
                program=spec.name, fingerprint=True, fuse=fuse,
            )
            runs[fuse] = (log, fingerprint)
        log_off, recorded_off = runs[False]
        log_on, recorded_on = runs[True]
        if log_off.to_payload() != log_on.to_payload():
            divergences.append(Divergence(
                spec.name, seed, "recorded_schedule_log", None,
                log_off.to_payload(), log_on.to_payload()))
        divergence = compare_fingerprints(recorded_off, recorded_on)
        if divergence is not None:
            divergence.field = "recorded_" + divergence.field
            divergences.append(divergence)
        replayed = {}
        for fuse in (False, True):
            outcome = replay_log(
                module, log_off, inputs=spec.workload_inputs,
                world=world() if world is not None else None,
                fingerprint=True, fuse=fuse,
            )
            if outcome.total_divergences or not outcome.faithful:
                divergences.append(Divergence(
                    spec.name, seed, "replay_faithfulness", None,
                    "faithful replay",
                    "fuse=%s: %d divergences" % (
                        fuse, outcome.total_divergences)))
            replayed[fuse] = outcome.fingerprint
        divergence = compare_fingerprints(replayed[False], replayed[True])
        if divergence is not None:
            divergence.field = "replayed_" + divergence.field
            divergences.append(divergence)
    return divergences


def benchmark_fused(spec, seeds: Sequence[int] = range(10),
                    max_steps: Optional[int] = None,
                    quantum: int = 50) -> Dict:
    """Measure the fused-vs-optimized steps/s ratio where fusion can act.

    ``RandomScheduler`` preempts geometrically (expected no-preempt run of
    ``n/(n-1)`` with ``n`` runnable threads), so the oracle sweep's
    ``fused_speedup`` is ~1.0x by construction — it proves parity, not
    performance.  The speedup floor is therefore measured under
    :class:`~repro.runtime.scheduler.RoundRobinScheduler`, whose quantum
    gives ``run_length`` real no-preempt windows, with one shared
    :class:`~repro.runtime.fuse.FuseEngine` so compiles amortize across
    seeds exactly as they do in a detector sweep.
    """
    from repro.runtime.fuse import FuseEngine
    from repro.runtime.scheduler import RoundRobinScheduler

    seeds = list(seeds)
    engine = FuseEngine()
    # One module for every VM, exactly like run_tsan/run_ski sweeps: a
    # fresh build per seed would re-randomize addresses and invalidate the
    # shared engine's plans on every attach.
    module = spec.build()
    totals = {"optimized": [0, 0.0], "fused": [0, 0.0]}
    for mode, fuse in (("optimized", False), ("fused", True)):
        for seed in seeds:
            vm = VM(
                module,
                scheduler=RoundRobinScheduler(quantum=quantum),
                world=(spec.initial_world()
                       if spec.initial_world is not None else None),
                inputs=spec.workload_inputs,
                max_steps=max_steps or spec.max_steps,
                seed=seed,
                fuse=engine if fuse else False,
            )
            started = time.perf_counter()
            vm.start(spec.entry)
            result = vm.run()
            totals[mode][0] += result.steps
            totals[mode][1] += time.perf_counter() - started
    optimized_sps = (totals["optimized"][0] / totals["optimized"][1]
                     if totals["optimized"][1] > 0 else 0.0)
    fused_sps = (totals["fused"][0] / totals["fused"][1]
                 if totals["fused"][1] > 0 else 0.0)
    counters = engine.counters()
    fused_steps = totals["fused"][0]
    return {
        "program": spec.name,
        "scheduler": "round_robin",
        "quantum": quantum,
        "seeds": len(seeds),
        "optimized_steps_per_second": round(optimized_sps, 1),
        "fused_steps_per_second": round(fused_sps, 1),
        "fused_speedup": round(fused_sps / optimized_sps, 3)
        if optimized_sps > 0 else 0.0,
        "fused_step_share": round(
            counters["fused_steps"] / fused_steps, 4) if fused_steps else 0.0,
        "compiled_blocks": counters["compiled"],
    }
