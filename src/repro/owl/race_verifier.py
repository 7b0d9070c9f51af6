"""The dynamic race verifier (paper section 5.2).

For each (reduced) race report, the verifier re-runs the program under the
debugger with *thread-specific breakpoints* on the two racing instructions.
A race is verified when two different threads are simultaneously halted at
the racing instructions with the same pending address — caught "in the
racing moment".  On verification it emits *security hints*: the racing
instructions, the values they are about to read/write, and the type of the
variable — enough to show "whether a NULL pointer difference can be
triggered or an uninitialized data can be read because of the race".

Livelock (all remaining progress requires a halted thread) is resolved by
temporarily releasing one of the triggered breakpoints, exactly as the paper
describes.  Races that never co-halt across the retry budget are eliminated
(the R.V.E. column of Table 3); as the paper notes, this can miss races that
"can't be reliably reproduced with 100% success rate".

A run that can no longer catch its race ends early: the debugger is armed
with the report's static may-reach summary (:mod:`repro.ir.reach`), and
``VM.run`` returns ``OUT_OF_REACH`` once no two live threads can ever again
be at the racing pair.  That run was a miss already, so outcomes are those
of running it to the end; reference-mode VMs run every execution to the end.

Every report's run under one seed follows the same schedule until its first
breakpoint fires or its early stop holds, so that shared prefix runs once:
a verifier given ``trunks`` keeps one :class:`Trunk` per seed (and per
module, entry, inputs and step budget), and a run takes the trunk over
where it first differs from it (:meth:`Trunk.serves`).  A run the trunk
cannot serve, and every run in reference mode or without ``trunks`` (pool
workers), starts fresh from step 0.  Either way the run is the same run:
same halts, hits, early stop, outcome and step count.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.detectors.report import RaceReport
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.reach import TargetReach, reach_analysis
from repro.runtime.debugger import Debugger, PendingAccess
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.spans import SpanTracer, maybe_span
from repro.runtime.thread import ThreadState


class SecurityHints:
    """The dynamic information printed for a verified race."""

    def __init__(
        self,
        variable: Optional[str],
        value_type: str,
        read_value: Optional[int],
        write_value: Optional[int],
        null_write: bool,
        address: int,
    ):
        self.variable = variable
        self.value_type = value_type
        self.read_value = read_value
        self.write_value = write_value
        #: the write is about to store NULL/0 — a NULL-deref setup (Figure 2/6)
        self.null_write = null_write
        self.address = address

    def describe(self) -> str:
        parts = [
            "racing on %s (%s)" % (self.variable or hex(self.address), self.value_type),
        ]
        if self.read_value is not None:
            parts.append("value about to be read: %d" % self.read_value)
        if self.write_value is not None:
            parts.append("value about to be written: %d" % self.write_value)
        if self.null_write:
            parts.append("NULL/0 write: a NULL dereference may follow")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return "<SecurityHints %s>" % self.describe()


class RaceVerification:
    """Outcome of verifying one race report.

    ``vm_steps`` (the steps of every run, sleep fast-forwards included,
    each run counted from step 0 though a run that took over a trunk
    executed its prefix once, in the trunk) and ``runs_stopped_early``
    are work counters the verifier fills in.
    """

    def __init__(self, report: RaceReport, verified: bool,
                 hints: Optional[SecurityHints] = None, runs_used: int = 0,
                 livelocks_resolved: int = 0):
        self.report = report
        self.verified = verified
        self.hints = hints
        self.runs_used = runs_used
        self.livelocks_resolved = livelocks_resolved
        self.vm_steps = 0
        self.runs_stopped_early = 0

    def __repr__(self) -> str:
        return "<RaceVerification %s runs=%d>" % (
            "VERIFIED" if self.verified else "eliminated", self.runs_used,
        )


class Trunk:
    """One seed's shared prefix: the execution every report's run follows
    until its own breakpoints or early stop make it differ.

    ``vm`` is a started execution that no breakpoint has stopped (None once
    it ended), and ``trail`` every instruction a thread was scheduled at in
    it.  The trunk only advances under the debugger of a run that takes it
    over (:meth:`serve`); ``served`` counts those runs.
    """

    def __init__(self, vm: VM):
        self.vm: Optional[VM] = vm
        self.trail: Set[Instruction] = set()
        self.served = 0

    def serves(self, reach: TargetReach) -> bool:
        """Whether a fresh run with breakpoints on ``reach``'s targets and
        its early stop would be here now: no target ran before (it would
        have halted there) and the early stop does not hold (it is
        monotone, so it held at no earlier step either)."""
        vm = self.vm
        return (vm is not None and self.trail.isdisjoint(reach.targets)
                and not reach.out_of_reach(
                    thread.frames for thread in vm._alive))

    def serve(self, debugger: Debugger) -> ExecutionResult:
        """Run on under ``debugger`` (a run's, attached to :attr:`vm`) to
        the first return of ``VM.run``; the run keeps the VM and the result.

        The trunk goes on as a fork of that VM: after a halt the fork
        releases the halted thread and executes the step the scheduler
        already drew for it (no second draw); after an early stop it goes
        on as it is.  Any other result ended the execution, and the trunk
        with it.
        """
        vm = self.vm
        self.served += 1
        debugger.trail = self.trail
        try:
            result = vm.run()
        finally:
            debugger.trail = None
        trunk = None
        if result.reason == ExecutionResult.BREAKPOINT:
            halted = debugger.last_hit[0]
            trunk = vm.fork()
            thread = trunk.threads[halted.thread_id]
            thread.state = ThreadState.RUNNABLE
            trunk._halted_count -= 1
            self.trail.add(thread.current_instruction())
            if trunk.step_thread(thread) is not None:
                trunk = None
        elif result.reason == ExecutionResult.OUT_OF_REACH:
            trunk = vm.fork()
        self.vm = trunk
        return result


class DynamicRaceVerifier:
    """Verifies race reports by catching them in the racing moment.

    ``trunks`` (a dict one batch of verifications shares) lets runs take
    over their seed's :class:`Trunk` instead of re-running its prefix.
    """

    TAG = "verified"

    def __init__(
        self,
        module: Module,
        entry: str = "main",
        inputs: Optional[Dict] = None,
        seeds: Sequence[int] = range(6),
        max_steps: int = 200_000,
        vm_factory: Optional[Callable[[int], VM]] = None,
        tracer: Optional[SpanTracer] = None,
        trunks: Optional[Dict[Tuple, Trunk]] = None,
    ):
        self.module = module
        self.entry = entry
        self.inputs = inputs
        self.seeds = list(seeds)
        self.max_steps = max_steps
        self.vm_factory = vm_factory
        self.tracer = tracer
        self.trunks = trunks

    # ------------------------------------------------------------------

    def verify(self, report: RaceReport) -> RaceVerification:
        """One race per run, possibly several runs (seeds)."""
        with maybe_span(self.tracer, "verify_report",
                        report=report.uid, variable=report.variable) as span:
            verification = self._verify(report)
            if span is not None:
                span.attrs.update(
                    verified=verification.verified,
                    runs_used=verification.runs_used,
                    livelocks_resolved=verification.livelocks_resolved,
                )
        return verification

    def _verify(self, report: RaceReport) -> RaceVerification:
        targets = (report.first.instruction, report.second.instruction)
        reach = None
        livelocks = vm_steps = stopped = 0
        verification = None
        for attempt, seed in enumerate(self.seeds, start=1):
            trunk = self._trunk(seed)
            vm = trunk.vm if trunk is not None else self._make_vm(seed)
            if not vm.reference and (reach is None
                                     or reach.module is not vm.module):
                reach = reach_analysis(vm.module).for_targets(targets)
            if trunk is not None and not trunk.serves(reach):
                trunk, vm = None, self._make_vm(seed)
            debugger = Debugger(vm)
            for instruction in targets:
                debugger.add_breakpoint(instruction)
            if not vm.reference:
                debugger.stop_when_out_of_reach(reach)
            with maybe_span(self.tracer, "verify_attempt",
                            seed=seed, attempt=attempt) as span:
                if trunk is not None:
                    first = trunk.serve(debugger)
                else:
                    vm.start(self.entry)
                    first = None
                hints, released, reason = self._drive(vm, debugger, report,
                                                      first)
                stopped_early = reason == ExecutionResult.OUT_OF_REACH
                if span is not None:
                    span.attrs.update(caught=hints is not None,
                                      stopped_early=stopped_early)
                    if stopped_early:
                        span.attrs["stop_step"] = vm.step
            debugger.detach()
            vm_steps += vm.step
            if hints is not None:
                # livelocks_resolved counts the releases of the runs that
                # missed; the catching run's releases are not part of it
                report.tags[self.TAG] = hints
                verification = RaceVerification(report, True, hints, attempt,
                                                livelocks)
                break
            livelocks += released
            stopped += stopped_early
        if verification is None:
            verification = RaceVerification(report, False, None,
                                            len(self.seeds), livelocks)
        verification.vm_steps = vm_steps
        verification.runs_stopped_early = stopped
        return verification

    # ------------------------------------------------------------------

    def _make_vm(self, seed: int) -> VM:
        if self.vm_factory is not None:
            return self.vm_factory(seed)
        return VM(self.module, scheduler=RandomScheduler(seed), inputs=self.inputs,
                  max_steps=self.max_steps, seed=seed)

    def _trunk(self, seed: int) -> Optional[Trunk]:
        """``seed``'s trunk, started on first use, while it runs; None
        without trunks or in reference mode (the first VM built for the
        seed tells the mode, and a reference VM is not kept)."""
        if self.trunks is None:
            return None
        key = (self.module, self.entry, repr(self.inputs), self.max_steps,
               seed)
        trunk = self.trunks.get(key)
        if trunk is None:
            vm = self._make_vm(seed)
            vm.start(self.entry)
            trunk = self.trunks[key] = Trunk(None if vm.reference else vm)
        return trunk if trunk.vm is not None else None

    def _drive(self, vm: VM, debugger: Debugger, report: RaceReport,
               first: Optional[ExecutionResult] = None
               ) -> Tuple[Optional[SecurityHints], int, str]:
        """Run one execution: (hints when caught, livelocks resolved, the
        last ``VM.run`` reason).  ``first`` is the result of the run's
        first ``VM.run`` when it already returned (:meth:`Trunk.serve`)."""
        livelocks_resolved = 0
        race_instructions = {report.first.instruction, report.second.instruction}
        while True:
            result = first if first is not None else vm.run()
            first = None
            if result.reason != ExecutionResult.BREAKPOINT:
                return None, livelocks_resolved, result.reason
            halted = debugger.halted_threads()
            caught = self._racing_moment(vm, debugger, halted, race_instructions)
            if caught is not None:
                self._resume_all(debugger, halted)
                return caught, livelocks_resolved, result.reason
            if not vm.runnable_threads():
                released = debugger.release_one()
                if released is None:
                    return None, livelocks_resolved, result.reason
                livelocks_resolved += 1
                if self.tracer is not None:
                    self.tracer.instant("livelock_release",
                                        release=livelocks_resolved)

    def _racing_moment(self, vm: VM, debugger: Debugger, halted,
                       race_instructions) -> Optional[SecurityHints]:
        """Two distinct threads at the racing instructions, same address?"""
        threads = [
            thread for thread in halted
            if thread.current_instruction() in race_instructions
        ]
        if len(threads) < 2:
            return None
        accesses: List[Tuple[object, PendingAccess]] = []
        for thread in threads:
            pending = debugger.pending_access(thread)
            if pending is not None and pending.address is not None:
                accesses.append((thread, pending))
        for i in range(len(accesses)):
            for j in range(i + 1, len(accesses)):
                thread_a, access_a = accesses[i]
                thread_b, access_b = accesses[j]
                if thread_a is thread_b:
                    continue
                if access_a.address != access_b.address:
                    continue
                if not (access_a.is_write or access_b.is_write):
                    continue
                return self._build_hints(vm, access_a, access_b)
        return None

    def _build_hints(self, vm: VM, access_a: PendingAccess,
                     access_b: PendingAccess) -> SecurityHints:
        write = access_a if access_a.is_write else access_b
        read = access_b if write is access_a else access_a
        return SecurityHints(
            variable=vm.memory.describe(write.address),
            value_type=write.value_type,
            read_value=(
                None if read.is_write
                else vm.debugger.peek_memory(read.address, 8)
            ),
            write_value=write.value,
            null_write=bool(write.is_write and write.value == 0),
            address=write.address,
        )

    @staticmethod
    def _resume_all(debugger: Debugger, halted) -> None:
        for thread in halted:
            debugger.resume(thread, step_past=True)
