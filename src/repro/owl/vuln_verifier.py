"""The dynamic vulnerability verifier (paper section 6.2).

It takes the static analyzer's output — the vulnerable site and the
associated (corrupted) branches — re-runs the program, and reports whether
the site can be reached and the attack realized.  If the site is not
reached, it reports the *diverged branches* as further input hints.

Per section 4.3, "our vulnerability verifier requires user intervention to
decide the execution order of the racing instructions and input tuning" —
here the "user" is the caller supplying a racing order (which racing side
should fire first) and concrete program inputs; exploit drivers in
``repro.exploits`` play that role.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.detectors.report import RaceReport
from repro.ir.instructions import Br
from repro.ir.module import Module
from repro.owl.vuln_analysis import VulnerabilityReport
from repro.owl.vuln_sites import VulnSiteType
from repro.runtime.debugger import Debugger
from repro.runtime.errors import FaultKind
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.spans import SpanTracer, maybe_span

#: fault kinds that realize each vulnerable site type at runtime
_FAULTS_FOR_SITE = {
    VulnSiteType.MEMORY_OP: {
        FaultKind.BUFFER_OVERFLOW, FaultKind.FIELD_OVERFLOW, FaultKind.STACK_SMASH,
    },
    VulnSiteType.NULL_PTR_DEREF: {
        FaultKind.NULL_DEREF, FaultKind.USE_AFTER_FREE, FaultKind.WILD_ACCESS,
    },
}


class VulnVerification:
    """Outcome of verifying one vulnerability report."""

    def __init__(
        self,
        vulnerability: VulnerabilityReport,
        site_reached: bool,
        attack_realized: bool,
        diverged_branches: Sequence[Br] = (),
        fault_kinds: Sequence[FaultKind] = (),
        runs_used: int = 0,
    ):
        self.vulnerability = vulnerability
        self.site_reached = site_reached
        self.attack_realized = attack_realized
        self.diverged_branches = list(diverged_branches)
        self.fault_kinds = list(fault_kinds)
        self.runs_used = runs_used
        #: VM steps of every run behind this outcome (filled in by the
        #: verifier), sleep fast-forwards included
        self.vm_steps = 0

    def describe(self) -> str:
        if self.attack_realized:
            return "attack REALIZED at %s (%s)" % (
                self.vulnerability.site.location,
                ", ".join(k.value for k in self.fault_kinds) or "predicate",
            )
        if self.site_reached:
            return "site reached at %s but attack not observed" % (
                self.vulnerability.site.location,
            )
        diverged = ", ".join(str(b.location) for b in self.diverged_branches)
        return "site not reached; diverged branches: %s" % (diverged or "none")

    def __repr__(self) -> str:
        return "<VulnVerification %s>" % self.describe()


class DynamicVulnerabilityVerifier:
    """Drives re-executions toward the vulnerable site."""

    def __init__(
        self,
        module: Module,
        entry: str = "main",
        inputs: Optional[Dict] = None,
        seeds: Sequence[int] = range(8),
        max_steps: int = 200_000,
        vm_factory: Optional[Callable[[int], VM]] = None,
        attack_predicate: Optional[Callable[[VM], bool]] = None,
        racing_order: Optional[Tuple[str, str]] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.module = module
        self.entry = entry
        self.inputs = inputs
        self.seeds = list(seeds)
        self.max_steps = max_steps
        self.vm_factory = vm_factory
        self.attack_predicate = attack_predicate
        #: ("write-first" | "read-first", applied when a source race exists)
        self.racing_order = racing_order
        self.tracer = tracer

    # ------------------------------------------------------------------

    def verify(self, vulnerability: VulnerabilityReport) -> VulnVerification:
        with maybe_span(self.tracer, "verify_vulnerability",
                        site=str(vulnerability.site.location),
                        site_type=vulnerability.site_type.value) as span:
            verification = self._verify(vulnerability)
            if span is not None:
                span.attrs.update(
                    site_reached=verification.site_reached,
                    attack_realized=verification.attack_realized,
                    runs_used=verification.runs_used,
                )
        return verification

    def _verify(self, vulnerability: VulnerabilityReport) -> VulnVerification:
        best: Optional[VulnVerification] = None
        vm_steps = 0
        for attempt, seed in enumerate(self.seeds, start=1):
            with maybe_span(self.tracer, "vuln_attempt",
                            seed=seed, attempt=attempt) as span:
                outcome = self._one_run(vulnerability, seed, attempt)
                if span is not None:
                    span.attrs.update(site_reached=outcome.site_reached,
                                      attack_realized=outcome.attack_realized)
            vm_steps += outcome.vm_steps
            if outcome.attack_realized:
                best = outcome
                break
            if best is None or (outcome.site_reached and not best.site_reached):
                best = outcome
        if best is None:
            best = VulnVerification(vulnerability, False, False,
                                    runs_used=len(self.seeds))
        best.vm_steps = vm_steps
        return best

    # ------------------------------------------------------------------

    def _one_run(self, vulnerability: VulnerabilityReport, seed: int,
                 attempt: int) -> VulnVerification:
        vm = self._make_vm(seed)
        debugger = Debugger(vm)
        site_breakpoint = debugger.add_breakpoint(vulnerability.site)
        branch_breakpoints = {
            debugger.add_breakpoint(branch): branch
            for branch in vulnerability.branches
        }
        race_control = self._setup_race_order(vm, debugger, vulnerability)
        vm.start(self.entry)
        site_reached = False
        branch_outcomes: Dict[Br, List[bool]] = {}
        max_events = 10_000
        while max_events > 0:
            max_events -= 1
            result = vm.run()
            if result.reason != ExecutionResult.BREAKPOINT:
                break
            resumed_any = False
            held: List = []
            for thread in debugger.halted_threads():
                instruction = thread.current_instruction()
                if instruction is vulnerability.site:
                    site_reached = True
                for breakpoint, branch in branch_breakpoints.items():
                    if instruction is branch and thread.frames:
                        taken = bool(vm.evaluate(thread.top, branch.condition))
                        branch_outcomes.setdefault(branch, []).append(taken)
                if race_control is not None and not race_control.done:
                    if race_control.handle(thread):
                        held.append(thread)
                        continue
                debugger.resume(thread, step_past=True)
                resumed_any = True
            if not resumed_any and not vm.runnable_threads():
                # Enforcement wedged the schedule: give up holding one thread
                # (the paper's manual "input tuning / order decision" step may
                # likewise fail to impose an order on a given run).
                if held:
                    debugger.resume(held[0], step_past=True)
                elif debugger.release_one() is None:
                    break
        realized = self._attack_realized(vm, vulnerability)
        diverged = [
            branch for branch, outcomes in branch_outcomes.items()
            if not site_reached and outcomes
        ]
        faults = sorted({f.kind for f in vm.faults}, key=lambda k: k.value)
        outcome = VulnVerification(
            vulnerability, site_reached, realized, diverged, faults, attempt,
        )
        outcome.vm_steps = vm.step
        debugger.detach()
        return outcome

    def _make_vm(self, seed: int) -> VM:
        if self.vm_factory is not None:
            return self.vm_factory(seed)
        return VM(self.module, scheduler=RandomScheduler(seed), inputs=self.inputs,
                  max_steps=self.max_steps, seed=seed)

    def _setup_race_order(self, vm: VM, debugger: Debugger,
                          vulnerability: VulnerabilityReport):
        source = vulnerability.source
        if source is None or self.racing_order is None:
            return None
        return _RaceOrderControl(debugger, source, self.racing_order)

    def _attack_realized(self, vm: VM, vulnerability: VulnerabilityReport) -> bool:
        if self.attack_predicate is not None:
            return self.attack_predicate(vm)
        expected = _FAULTS_FOR_SITE.get(vulnerability.site_type, set())
        if any(fault.kind in expected for fault in vm.faults):
            return True
        if vulnerability.site_type is VulnSiteType.PRIVILEGE_OP:
            return vm.world.euid == 0 or bool(vm.world.privilege_log)
        if vulnerability.site_type is VulnSiteType.FORK_OP:
            return vm.world.got_root_shell() or bool(vm.world.exec_log)
        return False


class _RaceOrderControl:
    """Enforce which racing side fires first, via the race breakpoints.

    "read-first" holds the writer until the reader has fired (and vice
    versa) — the schedule steering the paper attributes to user intervention.
    """

    def __init__(self, debugger: Debugger, race: RaceReport, order: Tuple[str, str]):
        self.debugger = debugger
        self.order = order[0] if isinstance(order, tuple) else order
        write = race.write_access()
        read = race.read_access()
        others = [a for a in race.accesses() if a is not write]
        self.write_instruction = write.instruction if write else None
        self.read_instruction = (
            read.instruction if read else (others[0].instruction if others else None)
        )
        self.first_fired = False
        self.done = False
        for access in race.accesses():
            debugger.add_breakpoint(access.instruction)

    def handle(self, thread) -> bool:
        """Returns True when the thread should stay halted (held back)."""
        instruction = thread.current_instruction()
        first = (
            self.write_instruction if self.order == "write-first"
            else self.read_instruction
        )
        second = (
            self.read_instruction if self.order == "write-first"
            else self.write_instruction
        )
        if instruction is first:
            self.first_fired = True
            self.debugger.resume(thread, step_past=True)
            return False
        if instruction is second:
            if not self.first_fired:
                return True  # hold until the other side fires
            self.done = True
            self.debugger.resume(thread, step_past=True)
            return False
        return False
