"""The instruction-stepping virtual machine.

One :class:`VM` instance is one process execution: a module, a shared memory,
an OS world, a set of threads and a scheduler.  Each scheduler step executes
exactly one instruction of one thread, so every interleaving of shared-memory
accesses is reachable by some scheduler — the property the paper's dynamic
tools (TSan, SKI, the LLDB verifiers) rely on hardware timing for.

Key behaviours:

- shared-memory loads/stores on global and heap blocks emit
  :class:`repro.runtime.events.AccessEvent`s to attached observers (stack
  slots are thread-private in the model programs and stay silent, mirroring
  TSan's escape-analysis-driven instrumentation);
- indirect calls through a NULL or dangling function pointer raise the
  corresponding fault — this is the Linux uselib attack's consequence
  (paper Figure 2);
- a debugger may be attached; it can halt individual threads at breakpoints
  while the rest keep running (thread-specific breakpoints, paper
  section 5.2).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.ir.function import ExternalFunction, Function
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    BinOp,
    Br,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Ret,
    Store,
)
from repro.ir.module import Module
from repro.ir.types import IntType, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.runtime import externals
from repro.runtime.errors import FaultEvent, FaultKind, RuntimeFault
from repro.runtime.events import (
    AccessEvent,
    AccessRepeat,
    AllocEvent,
    ExternalCallEvent,
    FreeEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.fuse import FuseEngine, fuse_engine
from repro.runtime.memory import Memory, MemoryBlock, store_initializer
from repro.runtime.os_model import OSWorld
from repro.runtime.scheduler import RoundRobinScheduler, Scheduler, copy_rng
from repro.runtime.thread import Frame, ThreadContext, ThreadState

MASK64 = (1 << 64) - 1

#: Faults that corrupt state but let execution continue (attack material).
NONFATAL_FAULTS = frozenset({FaultKind.FIELD_OVERFLOW})

#: When True, newly constructed VMs default to the reference configuration:
#: the ``_exec_*`` handlers behind an isinstance chain, and no compiled
#: ops or memoization anywhere.  The differential oracle
#: (:mod:`repro.runtime.diffcheck`) flips this to re-execute whole
#: pipeline stages with the pre-optimization semantics.
_REFERENCE_MODE = False

#: When True, newly constructed VMs execute one instruction per scheduler
#: decision (no superinstruction fusion) but keep every other
#: optimization, compiled ops included: the oracle's fused-vs-stepwise
#: switch.
_STEPWISE_MODE = False


@contextmanager
def reference_execution():
    """Every VM constructed inside the block runs in reference mode."""
    global _REFERENCE_MODE
    previous = _REFERENCE_MODE
    _REFERENCE_MODE = True
    try:
        yield
    finally:
        _REFERENCE_MODE = previous


@contextmanager
def stepwise_execution():
    """Every VM constructed inside the block executes without fusion."""
    global _STEPWISE_MODE
    previous = _STEPWISE_MODE
    _STEPWISE_MODE = True
    try:
        yield
    finally:
        _STEPWISE_MODE = previous


def fusion_enabled() -> bool:
    """Whether VMs constructed now may fuse (neither switch is on)."""
    return not (_REFERENCE_MODE or _STEPWISE_MODE)


class _AccessCapture(TraceObserver):
    """Keeps the access events of the loop iteration being watched for a
    fixed point (:meth:`VM._run_to_fixed_point`)."""

    def __init__(self):
        self.events: List[AccessEvent] = []

    def on_access(self, event: AccessEvent) -> None:
        self.events.append(event)


class ExecutionResult:
    """Outcome of a (partial) run."""

    FINISHED = "finished"
    BREAKPOINT = "breakpoint"
    DEADLOCK = "deadlock"
    STEP_LIMIT = "step-limit"
    FAULT = "fault"
    EXITED = "exited"
    KILLED = "killed"
    #: a debugger's armed early stop fired: no two live threads can ever
    #: again be at its targets together (:mod:`repro.ir.reach`)
    OUT_OF_REACH = "out-of-reach"

    def __init__(self, reason: str, vm: "VM"):
        self.reason = reason
        self.steps = vm.step
        self.faults = list(vm.faults)
        self.exit_code = vm.world.exit_code

    def __repr__(self) -> str:
        return "<ExecutionResult %s steps=%d faults=%d>" % (
            self.reason, self.steps, len(self.faults),
        )


class VM:
    """A process execution of an IR module."""

    def __init__(
        self,
        module: Module,
        scheduler: Optional[Scheduler] = None,
        world: Optional[OSWorld] = None,
        inputs: Optional[Dict] = None,
        max_steps: int = 200_000,
        seed: int = 0,
        nonfatal_faults: frozenset = NONFATAL_FAULTS,
        reference: Optional[bool] = None,
    ):
        self.module = module
        self.scheduler = scheduler or RoundRobinScheduler()
        self.world = world or OSWorld()
        #: reference=True disables every hot-path shortcut (compiled ops,
        #: call-stack memo, block/description caches) so the differential
        #: oracle can compare against the plain implementation.  None picks
        #: up the ambient :func:`reference_execution` mode.
        self.reference = _REFERENCE_MODE if reference is None else reference
        self.memory = Memory(memoize=not self.reference)
        if self.reference:
            self.execute = self._execute_reference  # type: ignore[assignment]
        #: The module's op and plan cache (:mod:`repro.runtime.fuse`)
        #: outside reference mode: every step runs the instruction's
        #: compiled op from it.
        self.fuse_engine: Optional[FuseEngine] = None
        #: the engine's op dict, which :meth:`execute` reads every step
        self._ops: Dict[Instruction, Callable] = {}
        #: Whether this VM runs fused runs: under a scheduler that can
        #: commit runs, outside reference and stepwise mode.  Fused runs
        #: are bounded by the scheduler's ``run_length`` no-preempt grant
        #: and settled with ``commit``, so schedules and events are
        #: bit-identical to stepwise execution.
        self.fuses = False
        self.inputs: Dict = dict(inputs or {})
        self._input_cursors: Dict = {}
        self.max_steps = max_steps
        self.rng = random.Random(seed)
        self.nonfatal_faults = nonfatal_faults
        self.step = 0
        self.threads: Dict[int, ThreadContext] = {}
        # Incremental scheduling state: the run loop must not rescan every
        # thread ever created on every step.  ``_alive`` holds non-finished
        # threads in creation order (matching ``threads.values()`` minus the
        # finished ones), ``_blocked`` the currently blocked ones, and
        # ``_halted_count`` the debugger-halted ones, so the common case —
        # nothing blocked, nothing halted — schedules straight off ``_alive``.
        self._alive: List[ThreadContext] = []
        self._blocked: List[ThreadContext] = []
        self._halted_count = 0
        self._next_thread_id = 1
        self.mutexes: Dict[int, Optional[int]] = {}
        self.cond_waiters: Dict[int, List[int]] = {}
        self.observers: List[TraceObserver] = []
        self.faults: List[FaultEvent] = []
        self.debugger = None  # set by Debugger.attach()
        self._finished = False
        self._result_reason: Optional[str] = None
        self._function_addresses: Dict[str, int] = {}
        self._functions_by_address: Dict[int, Union[Function, ExternalFunction]] = {}
        self._global_addresses: Dict[str, int] = {}
        self._setup_code_addresses()
        self._setup_globals()
        if not self.reference:
            # Attach after address setup: ops bake global/function
            # addresses and the engine validates them on every attach.
            self.fuse_engine = fuse_engine(module).attach(self)
            self._ops = self.fuse_engine.ops
            self.fuses = self.scheduler.commits_runs and not _STEPWISE_MODE

    # ------------------------------------------------------------------
    # setup

    def _setup_code_addresses(self) -> None:
        address = 0x1000
        for name in list(self.module.functions) + list(self.module.externals):
            self._function_addresses[name] = address
            self._functions_by_address[address] = (
                self.module.functions.get(name) or self.module.externals[name]
            )
            address += 16

    def _setup_globals(self) -> None:
        for variable in self.module.globals.values():
            block = self.memory.allocate(
                variable.value_type.size(), MemoryBlock.GLOBAL,
                name=variable.name, value_type=variable.value_type,
            )
            self._global_addresses[variable.name] = block.base
            store_initializer(self.memory, block, variable.value_type,
                              variable.initializer)

    def fork(self) -> "VM":
        """A copy of this execution that runs on independently.

        Every piece of mutable state is copied: memory blocks, threads and
        their frames (allocas remapped to the copied blocks), mutexes,
        condvar waiters, faults, the OS world, input cursors, :attr:`rng`
        and the scheduler with its RNG.  The module, its fuse engine and
        the address maps are shared: breakpoints match instructions by
        identity, so a fork runs the very IR its original runs.  The fork
        has no debugger and no observers; a halted thread stays halted.
        """
        vm = VM.__new__(VM)
        state = dict(self.__dict__)
        memory = self.memory.copy()
        threads = {thread_id: thread.copy(memory._blocks)
                   for thread_id, thread in self.threads.items()}
        state.update(
            scheduler=self.scheduler.fork(),
            world=self.world.copy(),
            memory=memory,
            inputs=dict(self.inputs),
            _input_cursors=dict(self._input_cursors),
            rng=copy_rng(self.rng),
            threads=threads,
            _alive=[threads[thread.thread_id] for thread in self._alive],
            _blocked=[threads[thread.thread_id] for thread in self._blocked],
            mutexes=dict(self.mutexes),
            cond_waiters={cond: list(waiters)
                          for cond, waiters in self.cond_waiters.items()},
            observers=[],
            faults=list(self.faults),
            debugger=None,
        )
        vm.__dict__.update(state)
        if self.reference:
            vm.execute = vm._execute_reference  # type: ignore[assignment]
        return vm

    # ------------------------------------------------------------------
    # observers / events

    def add_observer(self, observer: TraceObserver) -> None:
        self.observers.append(observer)

    def emit_access(self, thread: ThreadContext, instruction: Instruction,
                    address: int, size: int, is_write: bool, value: int,
                    is_atomic: bool = False,
                    block: Optional[MemoryBlock] = None) -> None:
        """Notify observers of a shared-memory access.

        ``block`` is the block containing ``address`` when the caller
        already looked it up (the load and store ops); None looks it up.
        """
        observers = self.observers
        if not observers:
            return
        if block is None:
            block = self.memory.block_at(address)
        if block is None or block.kind == MemoryBlock.STACK:
            return
        offset = address - block.base
        if self.reference:
            variable = block.describe_offset(offset)
        else:
            # Lazy: the description is formatted only if an observer reads
            # ``event.variable``, and then from the per-(block, offset) memo.
            def variable(block=block, offset=offset):
                return block.describe_offset_cached(offset)
        event = AccessEvent(
            thread.thread_id, self.step, instruction, address, size, is_write,
            value, is_atomic, thread.call_stack(), variable,
        )
        for observer in observers:
            observer.on_access(event)

    def emit_range_access(self, thread: ThreadContext, instruction: Instruction,
                          address: int, size: int, is_write: bool) -> None:
        self.emit_access(thread, instruction, address, size, is_write, 0)

    def emit_sync(self, thread: ThreadContext, kind: str, address: int,
                  instruction: Optional[Instruction] = None) -> None:
        event = SyncEvent(thread.thread_id, self.step, kind, address, instruction)
        for observer in self.observers:
            observer.on_sync(event)

    def emit_alloc(self, thread: ThreadContext, block: MemoryBlock) -> None:
        event = AllocEvent(thread.thread_id, self.step, block.base, block.size)
        for observer in self.observers:
            observer.on_alloc(event)

    def emit_free(self, thread: ThreadContext, address: int) -> None:
        event = FreeEvent(thread.thread_id, self.step, address)
        for observer in self.observers:
            observer.on_free(event)

    def emit_join(self, joiner: ThreadContext, joined: ThreadContext) -> None:
        event = ThreadLifecycleEvent(
            joiner.thread_id, self.step, ThreadLifecycleEvent.JOIN, joined.thread_id,
        )
        for observer in self.observers:
            observer.on_thread(event)

    # ------------------------------------------------------------------
    # faults

    def record_fault(self, event: FaultEvent) -> None:
        self.faults.append(event)
        for observer in self.observers:
            observer.on_fault(event)

    def raise_fault(self, event: FaultEvent) -> None:
        """Record a fault; abort the process unless it is non-fatal."""
        self.record_fault(event)
        if event.kind not in self.nonfatal_faults:
            raise RuntimeFault(event)

    # ------------------------------------------------------------------
    # threads

    def spawn_thread(self, function: Function, argument_values: Sequence[int],
                     creator: Optional[ThreadContext] = None,
                     name: Optional[str] = None) -> ThreadContext:
        thread = ThreadContext(
            self._next_thread_id,
            name or function.name,
            function,
            list(argument_values),
            memoize_stack=not self.reference,
        )
        self._next_thread_id += 1
        self.threads[thread.thread_id] = thread
        self._alive.append(thread)
        self.scheduler.on_thread_created(thread)
        creator_id = creator.thread_id if creator is not None else 0
        event = ThreadLifecycleEvent(
            creator_id, self.step, ThreadLifecycleEvent.CREATE, thread.thread_id,
        )
        for observer in self.observers:
            observer.on_thread(event)
        return thread

    def finish_thread(self, thread: ThreadContext, return_value: Optional[int]) -> None:
        thread.state = ThreadState.FINISHED
        thread.return_value = return_value
        thread.clear_frames()
        try:
            self._alive.remove(thread)
        except ValueError:
            pass
        event = ThreadLifecycleEvent(
            thread.thread_id, self.step, ThreadLifecycleEvent.EXIT, thread.thread_id,
        )
        for observer in self.observers:
            observer.on_thread(event)
        for waiter in self.threads.values():
            if (
                waiter.state == ThreadState.BLOCKED
                and waiter.blocked_on == "join t%d" % thread.thread_id
            ):
                self.unblock(waiter.thread_id)

    def unblock(self, thread_id: int) -> None:
        thread = self.threads.get(thread_id)
        if thread is not None and thread.state == ThreadState.BLOCKED:
            thread.state = ThreadState.RUNNABLE
            thread.blocked_on = None
            thread.wake_step = None
            thread.blocked_kind = None
            thread.blocked_arg = 0
            try:
                self._blocked.remove(thread)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # address helpers

    def function_address(self, name: str) -> int:
        return self._function_addresses[name]

    def function_at(self, address: int) -> Optional[Union[Function, ExternalFunction]]:
        return self._functions_by_address.get(address)

    def global_address(self, name: str) -> int:
        return self._global_addresses[name]

    def next_input(self, channel: int):
        values = self.inputs.get(channel)
        if values is None:
            return 0
        if callable(values):
            return values()
        cursor = self._input_cursors.get(channel, 0)
        if cursor >= len(values):
            return values[-1] if values else 0
        self._input_cursors[channel] = cursor + 1
        return values[cursor]

    # ------------------------------------------------------------------
    # value evaluation

    def evaluate(self, frame: Frame, operand: Value) -> int:
        if isinstance(operand, Constant):
            value = operand.value
            if isinstance(operand.type, IntType):
                return value & ((1 << operand.type.bits) - 1)
            return value & MASK64
        if isinstance(operand, GlobalVariable):
            return self._global_addresses[operand.name]
        if isinstance(operand, (Function, ExternalFunction)):
            return self._function_addresses[operand.name]
        if isinstance(operand, (Argument, Instruction)):
            try:
                return frame.registers[operand]
            except KeyError:
                raise RuntimeFault(FaultEvent(
                    FaultKind.WILD_ACCESS, -1,
                    "use of undefined value %s" % operand.short_name(),
                )) from None
        raise RuntimeFault(FaultEvent(
            FaultKind.WILD_ACCESS, -1, "unsupported operand %r" % (operand,),
        ))

    # ------------------------------------------------------------------
    # main loop

    def start(self, entry: str = "main",
              argument_values: Sequence[int] = ()) -> ThreadContext:
        function = self.module.get_function(entry)
        return self.spawn_thread(function, list(argument_values), name="main")

    def runnable_threads(self) -> List[ThreadContext]:
        self._wake_sleepers()
        return [t for t in self.threads.values() if t.state == ThreadState.RUNNABLE]

    def _wake_sleepers(self) -> None:
        for thread in self.threads.values():
            if (
                thread.state == ThreadState.BLOCKED
                and thread.wake_step is not None
                and thread.wake_step <= self.step
            ):
                self.unblock(thread.thread_id)

    def _retry_blocked(self) -> None:
        """Poll blocked threads whose wait condition may have become true."""
        for thread in self.threads.values():
            if thread.state != ThreadState.BLOCKED or thread.blocked_on is None:
                continue
            reason = thread.blocked_on
            if reason.startswith("mutex "):
                address = int(reason.split()[1], 16)
                if self.mutexes.get(address) is None:
                    self.unblock(thread.thread_id)
            elif reason.startswith("join t"):
                target = self.threads.get(int(reason[6:]))
                if target is not None and target.state == ThreadState.FINISHED:
                    self.unblock(thread.thread_id)

    def run(self, max_steps: Optional[int] = None) -> ExecutionResult:
        """Run until completion, fault, deadlock, breakpoint or step limit.

        ``max_steps`` bounds this call only and is clamped to the VM's
        global ``self.max_steps`` budget, so resumed runs (the verifiers
        re-entering ``run`` after a breakpoint) can never overshoot the
        process-wide step limit.
        """
        if max_steps is None:
            limit = self.max_steps
        else:
            limit = min(self.step + max_steps, self.max_steps)
        if self.reference:
            return self._run_reference_loop(limit)
        return self._run_fast_loop(limit)

    def _run_reference_loop(self, limit: int) -> ExecutionResult:
        """The pre-optimization scheduling loop, preserved for the oracle.

        Rescans every thread on every step (``_retry_blocked`` re-parses
        block reasons, ``runnable_threads`` refilters ``threads.values()``);
        :meth:`_run_fast_loop` must stay schedule-identical to this.
        """
        while True:
            if self._finished:
                return ExecutionResult(self._result_reason or
                                       ExecutionResult.FINISHED, self)
            if self.step >= limit:
                return ExecutionResult(ExecutionResult.STEP_LIMIT, self)
            self._retry_blocked()
            runnable = self.runnable_threads()
            if not runnable:
                outcome = self._handle_idle(limit)
                if outcome is not None:
                    return outcome
                continue
            thread = self.scheduler.choose(runnable, self.step)
            if self.debugger is not None:
                instruction = thread.current_instruction()
                if instruction is not None and self.debugger.check(thread, instruction):
                    self._halt_thread(thread)
                    return ExecutionResult(ExecutionResult.BREAKPOINT, self)
            outcome = self.step_thread(thread)
            if outcome is not None:
                return outcome

    def _run_fast_loop(self, limit: int) -> ExecutionResult:
        """Incremental scheduling loop: only blocked threads are re-polled.

        Semantically identical to :meth:`_run_reference_loop` — blocked
        threads are retried and sleepers woken before each filter, and the
        runnable list preserves creation order — but the common case (no
        thread blocked or halted) schedules directly off ``_alive`` without
        rescanning or re-filtering anything.

        A debugger's armed early stop
        (:meth:`repro.runtime.debugger.Debugger.stop_when_out_of_reach`) is
        checked on entry and after each instruction in its watch set; when
        its rule holds the run returns ``OUT_OF_REACH``.
        """
        debugger = self.debugger
        if (debugger is not None and not self._finished
                and debugger.targets_out_of_reach()):
            return ExecutionResult(ExecutionResult.OUT_OF_REACH, self)
        alive = self._alive
        blocked = self._blocked
        threads = self.threads
        mutexes = self.mutexes
        scheduler_choose = self.scheduler.choose
        step_thread = self.step_thread
        RUNNABLE = ThreadState.RUNNABLE
        FINISHED = ThreadState.FINISHED
        fuses = self.fuses
        if fuses:
            can_commit = self.scheduler.can_commit
            plan_for = self.fuse_engine.plan_for
            run_length = self.scheduler.run_length
            step_fused = self._step_fused
        while True:
            if self._finished:
                return ExecutionResult(self._result_reason or
                                       ExecutionResult.FINISHED, self)
            step = self.step
            if step >= limit:
                return ExecutionResult(ExecutionResult.STEP_LIMIT, self)
            if blocked:
                # One pass over only the blocked threads, with the reasons
                # parsed once at block time: retry mutex/join waits, then
                # wake expired sleepers — the same set the reference loop's
                # _retry_blocked + _wake_sleepers unblocks.
                for thread in blocked[:]:
                    kind = thread.blocked_kind
                    if kind == "mutex":
                        if mutexes.get(thread.blocked_arg) is None:
                            self.unblock(thread.thread_id)
                            continue
                    elif kind == "join":
                        target = threads.get(thread.blocked_arg)
                        if target is not None and target.state is FINISHED:
                            self.unblock(thread.thread_id)
                            continue
                    wake = thread.wake_step
                    if wake is not None and wake <= step:
                        self.unblock(thread.thread_id)
                runnable = [t for t in alive if t.state is RUNNABLE]
            elif self._halted_count:
                runnable = [t for t in alive if t.state is RUNNABLE]
            else:
                # Nothing blocked or halted: every live thread is runnable.
                runnable = alive
            if not runnable:
                outcome = self._handle_idle(limit)
                if outcome is not None:
                    return outcome
                continue
            thread = scheduler_choose(runnable, step)
            debugger = self.debugger
            if debugger is not None:
                instruction = thread.current_instruction()
                if instruction is not None and debugger.check(thread, instruction):
                    self._halt_thread(thread)
                    return ExecutionResult(ExecutionResult.BREAKPOINT, self)
                outcome = step_thread(thread, instruction)
                if outcome is not None:
                    return outcome
                if (instruction in debugger.watch
                        and debugger.targets_out_of_reach()):
                    return ExecutionResult(ExecutionResult.OUT_OF_REACH, self)
                continue
            if (
                fuses
                and can_commit(step)
                and not self._halted_count
                and limit - step > 1
            ):
                # Fusion window: fused runs contain no calls, so no
                # thread can spawn, exit, unlock a mutex or finish a join
                # target mid-run — mutex/join waiters stay blocked and the
                # runnable set is invariant.  The only time-driven change
                # is a sleeper expiring, so the window is clamped to the
                # earliest wake-up; with no halted threads and no
                # per-instruction debugger checks, the scheduler's
                # no-preempt grant then makes the fused run
                # schedule-identical to stepwise execution.  A loop trace
                # may cycle up to the step budget, a straight-line plan
                # covers its own ops.  Plans are looked up only where the
                # scheduler can grant a run.
                plan = plan_for(self, thread)
                if plan is not None:
                    max_len = limit - step
                    if plan.loop is None and plan.length < max_len:
                        max_len = plan.length
                    for sleeper in blocked:
                        wake = sleeper.wake_step
                        if wake is not None and wake - step < max_len:
                            max_len = wake - step
                    if max_len > 1:
                        length = run_length(thread, step, max_len)
                        if length > 1:
                            outcome = step_fused(thread, plan, length)
                            if outcome is not None:
                                return outcome
                            continue
            outcome = step_thread(thread)
            if outcome is not None:
                return outcome

    def _halt_thread(self, thread: ThreadContext) -> None:
        """Debugger halt; ``Debugger.resume`` undoes the count."""
        thread.state = ThreadState.HALTED
        self._halted_count += 1

    def _handle_idle(self, limit: int) -> Optional[ExecutionResult]:
        alive = [t for t in self.threads.values() if t.state != ThreadState.FINISHED]
        if not alive:
            self._finished = True
            return ExecutionResult(ExecutionResult.FINISHED, self)
        halted = [t for t in alive if t.state == ThreadState.HALTED]
        sleepers = [
            t for t in alive
            if t.state == ThreadState.BLOCKED and t.wake_step is not None
        ]
        if sleepers:
            wake = min(t.wake_step for t in sleepers)
            if wake > limit:
                # The earliest wake-up lies beyond this run's clamped step
                # budget: fast-forwarding to it would overshoot ``limit``
                # (and, on resumed runs, the process-wide ``max_steps``),
                # inflating step counters and replay checkpoints.  Park
                # the clock exactly at the budget instead.
                self.step = limit
                return ExecutionResult(ExecutionResult.STEP_LIMIT, self)
            self.step = wake
            self._wake_sleepers()
            return None
        if halted:
            # All progress requires a halted thread: the livelock state the
            # paper resolves by temporarily releasing a breakpoint (§5.2).
            return ExecutionResult(ExecutionResult.BREAKPOINT, self)
        event = FaultEvent(
            FaultKind.DEADLOCK, alive[0].thread_id,
            "deadlock: %s" % ", ".join(
                "t%d on %s" % (t.thread_id, t.blocked_on) for t in alive
            ),
            step=self.step,
        )
        self.record_fault(event)
        return ExecutionResult(ExecutionResult.DEADLOCK, self)

    def _step_fused(self, thread: ThreadContext, plan,
                    count: int) -> Optional[ExecutionResult]:
        """Execute at most ``count`` steps of ``plan`` on ``thread``, then
        commit the steps that ran to the scheduler.

        A straight-line plan runs its first ``count`` ops.  A loop trace
        (``plan.loop``) cycles its ops while its closing branch returns to
        the plan's start; it stops after the first iteration that leaves,
        or once ``count`` steps ran, even mid-iteration.  A read-only loop
        trace first goes through :meth:`_run_to_fixed_point`, which may
        skip most of the grant.

        Semantically consecutive :meth:`step_thread` calls on the same
        thread: ``vm.step`` is incremented before each op executes, the op
        advances ``frame.index`` itself, and a fault bails out through the
        exact fault path of :meth:`step_thread`.  ``steps_executed`` and
        the scheduler catch up when the run ends, before that path
        notifies observers: no op reads either.  Fused instructions cannot
        block, spawn, exit or switch frames, so those ``step_thread`` arms
        have no fused equivalent.
        """
        frame = thread.top
        ops = plan.ops
        loop = plan.loop
        first = self.step
        end = first + count
        length = plan.length
        try:
            if (plan.writes is None or count < 2 * length
                    or self._run_to_fixed_point(thread, frame, plan, end)):
                while True:
                    left = end - self.step
                    for op in ops if left >= length else ops[:left]:
                        self.step += 1
                        op(self, thread, frame)
                    if (loop is None or frame.block is not loop
                            or self.step == end):
                        break
        except RuntimeFault as fault:
            self._commit_fused(thread, self.step - first)
            self.fuse_engine.bailouts += 1
            if fault.event not in self.faults:
                self.record_fault(fault.event)
            self._finished = True
            self._result_reason = ExecutionResult.FAULT
            for observer in self.observers:
                observer.on_finish(self)
            return ExecutionResult(ExecutionResult.FAULT, self)
        self._commit_fused(thread, self.step - first)
        return None

    def _run_to_fixed_point(self, thread: ThreadContext, frame: Frame,
                            plan, end: int) -> bool:
        """Cycle a read-only loop trace until it reaches a fixed point,
        then skip the grant's remaining whole iterations.

        The fixed point: an iteration that writes the same register values
        as the one before (the first is compared with the registers the
        run started with) and records no fault.  Only this thread runs
        until ``end`` and the loop writes no memory, so every later
        iteration repeats that one except for its steps.  Each observer is
        asked :meth:`~repro.runtime.events.TraceObserver.accepts_repeat`
        about every access of the repeating iteration; if all accept,
        ``vm.step`` jumps over the whole iterations left in the grant and
        each observer gets one repeat per access.  The steps still count
        as fused, and the scheduler still commits them.

        The caller grants at least two whole iterations.  Watching stops
        once fewer than two are left, or at a refusal.  Returns whether
        the run goes on in the plain loop: False when an iteration left
        the loop.
        """
        ops = plan.ops
        loop = plan.loop
        length = plan.length
        writes = plan.writes
        registers = frame.registers
        faults = self.faults
        observers = self.observers
        capture = None
        if observers:
            capture = _AccessCapture()
            self.observers = [capture] + observers
        try:
            before = tuple(map(registers.get, writes))
            while True:
                recorded = len(faults)
                if capture is not None:
                    capture.events = []
                for op in ops:
                    self.step += 1
                    op(self, thread, frame)
                if frame.block is not loop:
                    return False
                after = tuple(map(registers.get, writes))
                if after == before and len(faults) == recorded:
                    break
                if end - self.step < 2 * length:
                    return True
                before = after
        finally:
            self.observers = observers
        events = capture.events if capture is not None else ()
        for event in events:
            for observer in observers:
                if not observer.accepts_repeat(event):
                    return True
        whole = (end - self.step) // length
        skipped = whole * length
        self.step += skipped
        self.fuse_engine.skipped_steps += skipped
        if events:
            repeats = [AccessRepeat(event.at_step(event.step + skipped),
                                    whole, length) for event in events]
            for observer in observers:
                observer.on_repeats(repeats)
        return True

    def _commit_fused(self, thread: ThreadContext, steps: int) -> None:
        """Account a fused run of ``steps`` steps (the faulting one too)."""
        thread.steps_executed += steps
        engine = self.fuse_engine
        engine.fused_runs += 1
        engine.fused_steps += steps
        self.scheduler.commit(steps)

    def step_thread(self, thread: ThreadContext,
                    instruction: Optional[Instruction] = None
                    ) -> Optional[ExecutionResult]:
        """Execute one instruction of ``thread`` — ``instruction``, when the
        caller already fetched its current one."""
        if instruction is None:
            instruction = thread.current_instruction()
        if instruction is None:
            # Fell off a block without terminator: verifier prevents this,
            # but finish the thread defensively.
            self.finish_thread(thread, None)
            return None
        self.step += 1
        thread.steps_executed += 1
        try:
            self.execute(thread, instruction)
        except externals.Block as block:
            reason = block.reason
            thread.state = ThreadState.BLOCKED
            thread.blocked_on = reason
            thread.wake_step = block.wake_step
            if reason.startswith("mutex "):
                thread.blocked_kind = "mutex"
                thread.blocked_arg = int(reason.split()[1], 16)
            elif reason.startswith("join t"):
                thread.blocked_kind = "join"
                thread.blocked_arg = int(reason[6:])
            else:
                # Reset the argument together with the kind: a thread that
                # previously blocked on a mutex must not keep the stale
                # address when it later blocks on an unparsed reason
                # (sleep, condvar) — coverage payloads and provenance
                # dumps would misattribute the wait.
                thread.blocked_kind = None
                thread.blocked_arg = 0
            self._blocked.append(thread)
            return None
        except externals.ProcessExit as exit_request:
            self.world.exit_code = exit_request.code
            self.world.process_killed = exit_request.killed
            self._finished = True
            self._result_reason = (
                ExecutionResult.KILLED if exit_request.killed else ExecutionResult.EXITED
            )
            for observer in self.observers:
                observer.on_finish(self)
            return ExecutionResult(self._result_reason, self)
        except RuntimeFault as fault:
            if fault.event not in self.faults:
                self.record_fault(fault.event)
            self._finished = True
            self._result_reason = ExecutionResult.FAULT
            for observer in self.observers:
                observer.on_finish(self)
            return ExecutionResult(ExecutionResult.FAULT, self)
        return None

    # ------------------------------------------------------------------
    # instruction execution

    def execute(self, thread: ThreadContext, instruction: Instruction) -> None:
        """Run one instruction through its compiled op.

        The op comes from the module's engine (:mod:`repro.runtime.fuse`),
        compiled on the instruction's first execution by any VM of the
        module.  Reference-mode VMs shadow this method with
        :meth:`_execute_reference` (the isinstance chain over the
        ``_exec_*`` handlers) so the differential oracle can compare both.
        """
        op = self._ops.get(instruction)
        if op is None:
            op = self.fuse_engine.op(self, instruction)
        op(self, thread, thread.frames[-1])

    def _execute_reference(self, thread: ThreadContext,
                           instruction: Instruction) -> None:
        """The pre-dispatch-table execution path, kept as the oracle's
        reference implementation (semantically identical by construction —
        the differential oracle asserts it stays that way)."""
        frame = thread.top
        if isinstance(instruction, Alloca):
            self._exec_alloca(thread, frame, instruction)
        elif isinstance(instruction, Load):
            self._exec_load(thread, frame, instruction)
        elif isinstance(instruction, Store):
            self._exec_store(thread, frame, instruction)
        elif isinstance(instruction, BinOp):
            self._exec_binop(thread, frame, instruction)
        elif isinstance(instruction, ICmp):
            self._exec_icmp(thread, frame, instruction)
        elif isinstance(instruction, GetElementPtr):
            self._exec_gep(thread, frame, instruction)
        elif isinstance(instruction, Cast):
            self._exec_cast(thread, frame, instruction)
        elif isinstance(instruction, AtomicRMW):
            self._exec_atomicrmw(thread, frame, instruction)
        elif isinstance(instruction, Br):
            self._exec_br(thread, frame, instruction)
        elif isinstance(instruction, Call):
            self._exec_call(thread, frame, instruction)
        elif isinstance(instruction, Ret):
            self._exec_ret(thread, frame, instruction)
        else:
            raise RuntimeFault(FaultEvent(
                FaultKind.WILD_ACCESS, thread.thread_id,
                "unsupported instruction %s" % instruction.describe(),
            ))

    def _exec_cast(self, thread, frame, instruction: Cast) -> None:
        value = self._truncate(
            self.evaluate(frame, instruction.value), instruction.type,
        )
        frame.registers[instruction] = value
        self._maybe_type_block(instruction, value)
        frame.index += 1

    def _maybe_type_block(self, instruction: Cast, value: int) -> None:
        """Casting a raw pointer to a struct pointer types the allocation.

        This is the runtime equivalent of debug info: it gives heap blocks a
        field layout so overflows crossing field boundaries are recorded as
        field-overflow corruption (e.g. strcpy past ``vuln_frame.buf`` into
        the adjacent handler slot, or Apache's log bytes into the fd field).
        """
        from repro.ir.types import StructType

        pointee = (
            instruction.type.pointee
            if isinstance(instruction.type, PointerType) else None
        )
        if not isinstance(pointee, StructType) or value == 0:
            return
        block = self.memory.block_at(value)
        if block is not None and not block.fields and block.base == value:
            block.value_type = pointee
            block.fields = pointee.layout()
            # The field layout changed, so memoized offset descriptions
            # ("heap#12+8") are stale; they must re-resolve to field names.
            block.invalidate_descriptions()

    @staticmethod
    def _truncate(value: int, type_) -> int:
        if isinstance(type_, IntType):
            return value & ((1 << type_.bits) - 1)
        return value & MASK64

    def _exec_alloca(self, thread, frame, instruction: Alloca) -> None:
        block = self.memory.allocate(
            instruction.allocated_type.size(), MemoryBlock.STACK,
            name="%s.%s" % (thread.top.function.name, instruction.name or "tmp"),
            value_type=instruction.allocated_type, step=self.step,
        )
        frame.allocas.append(block)
        frame.registers[instruction] = block.base
        frame.index += 1

    def _access_size(self, type_) -> int:
        return max(1, type_.size())

    def _exec_load(self, thread, frame, instruction: Load) -> None:
        address = self.evaluate(frame, instruction.pointer)
        size = self._access_size(instruction.type)
        block, fault = self.memory.check_access(
            address, size, False, thread.thread_id, self.step, thread.call_stack(),
        )
        if fault is not None:
            self.raise_fault(fault)
        value = self.memory.read_int(address, size, signed=False)
        frame.registers[instruction] = value
        self.emit_access(thread, instruction, address, size, False, value,
                         is_atomic=instruction.atomic)
        frame.index += 1

    def _exec_store(self, thread, frame, instruction: Store) -> None:
        address = self.evaluate(frame, instruction.pointer)
        value = self.evaluate(frame, instruction.value)
        size = self._access_size(instruction.value.type)
        block, fault = self.memory.check_access(
            address, size, True, thread.thread_id, self.step, thread.call_stack(),
        )
        if fault is not None:
            self.raise_fault(fault)
        self.memory.write_int(address, value, size)
        self.emit_access(thread, instruction, address, size, True, value,
                         is_atomic=instruction.atomic)
        frame.index += 1

    def _exec_binop(self, thread, frame, instruction: BinOp) -> None:
        lhs = self.evaluate(frame, instruction.lhs)
        rhs = self.evaluate(frame, instruction.rhs)
        bits = instruction.type.bits if isinstance(instruction.type, IntType) else 64
        mask = (1 << bits) - 1
        op = instruction.op
        if op in ("sdiv", "srem", "udiv", "urem") and rhs == 0:
            self.raise_fault(FaultEvent(
                FaultKind.DIVISION_BY_ZERO, thread.thread_id,
                "division by zero at %s" % instruction.location,
                call_stack=thread.call_stack(), step=self.step,
            ))
        signed_lhs = lhs - (1 << bits) if lhs >> (bits - 1) else lhs
        signed_rhs = rhs - (1 << bits) if rhs >> (bits - 1) else rhs
        if op == "add":
            result = lhs + rhs
        elif op == "sub":
            result = lhs - rhs
        elif op == "mul":
            result = lhs * rhs
        elif op == "udiv":
            result = lhs // rhs
        elif op == "urem":
            result = lhs % rhs
        elif op == "sdiv":
            result = int(signed_lhs / signed_rhs) if signed_rhs else 0
        elif op == "srem":
            result = signed_lhs - int(signed_lhs / signed_rhs) * signed_rhs
        elif op == "and":
            result = lhs & rhs
        elif op == "or":
            result = lhs | rhs
        elif op == "xor":
            result = lhs ^ rhs
        elif op == "shl":
            result = lhs << (rhs % bits)
        elif op == "lshr":
            result = lhs >> (rhs % bits)
        elif op == "ashr":
            result = signed_lhs >> (rhs % bits)
        else:
            raise RuntimeFault(FaultEvent(
                FaultKind.WILD_ACCESS, thread.thread_id, "bad binop %s" % op,
            ))
        frame.registers[instruction] = result & mask
        frame.index += 1

    def _exec_icmp(self, thread, frame, instruction: ICmp) -> None:
        lhs = self.evaluate(frame, instruction.lhs)
        rhs = self.evaluate(frame, instruction.rhs)
        lhs_type = instruction.lhs.type
        bits = lhs_type.bits if isinstance(lhs_type, IntType) else 64
        predicate = instruction.predicate
        if predicate.startswith("s"):
            lhs = lhs - (1 << bits) if lhs >> (bits - 1) else lhs
            rhs = rhs - (1 << bits) if rhs >> (bits - 1) else rhs
        if predicate == "eq":
            result = lhs == rhs
        elif predicate == "ne":
            result = lhs != rhs
        elif predicate in ("slt", "ult"):
            result = lhs < rhs
        elif predicate in ("sle", "ule"):
            result = lhs <= rhs
        elif predicate in ("sgt", "ugt"):
            result = lhs > rhs
        else:  # sge / uge
            result = lhs >= rhs
        frame.registers[instruction] = 1 if result else 0
        frame.index += 1

    def _exec_gep(self, thread, frame, instruction: GetElementPtr) -> None:
        base = self.evaluate(frame, instruction.base)
        pointee = instruction.base.type.pointee
        if instruction.field is not None:
            offset = pointee.field_offset(instruction.field)
        else:
            index = self.evaluate(frame, instruction.index)
            if index >> 63:  # negative index (two's complement)
                index -= 1 << 64
            element = instruction.type.pointee
            offset = index * element.size()
        frame.registers[instruction] = (base + offset) & MASK64
        frame.index += 1

    def _exec_atomicrmw(self, thread, frame, instruction: AtomicRMW) -> None:
        address = self.evaluate(frame, instruction.pointer)
        operand = self.evaluate(frame, instruction.value)
        size = self._access_size(instruction.type)
        block, fault = self.memory.check_access(
            address, size, True, thread.thread_id, self.step, thread.call_stack(),
        )
        if fault is not None:
            self.raise_fault(fault)
        self.emit_sync(thread, SyncEvent.ACQUIRE, address, instruction)
        old = self.memory.read_int(address, size, signed=False)
        op = instruction.op
        if op == "add":
            new = old + operand
        elif op == "sub":
            new = old - operand
        elif op == "xchg":
            new = operand
        elif op == "and":
            new = old & operand
        elif op == "or":
            new = old | operand
        else:  # xor
            new = old ^ operand
        self.memory.write_int(address, new, size)
        self.emit_sync(thread, SyncEvent.RELEASE, address, instruction)
        frame.registers[instruction] = old
        frame.index += 1

    def _exec_br(self, thread, frame, instruction: Br) -> None:
        if instruction.is_conditional:
            condition = self.evaluate(frame, instruction.condition)
            target = instruction.true_block if condition else instruction.false_block
        else:
            target = instruction.true_block
        frame.jump(target)

    def _exec_call(self, thread, frame, instruction: Call) -> None:
        callee = instruction.callee
        if isinstance(callee, (Function, ExternalFunction)):
            target = callee
        else:
            address = self.evaluate(frame, callee)
            target = self.function_at(address)
            if target is None:
                kind = (FaultKind.NULL_DEREF if address == 0
                        else FaultKind.WILD_ACCESS)
                self.raise_fault(FaultEvent(
                    kind, thread.thread_id,
                    "indirect call through %s function pointer (0x%x) at %s" % (
                        "NULL" if address == 0 else "dangling", address,
                        instruction.location,
                    ),
                    address=address, call_stack=thread.call_stack(), step=self.step,
                ))
                frame.registers[instruction] = 0
                frame.index += 1
                return
        argument_values = [self.evaluate(frame, op) for op in instruction.operands]
        if isinstance(target, ExternalFunction):
            self._exec_external(thread, frame, instruction, target, argument_values)
        else:
            callee_frame = Frame(target, call_site=instruction)
            for parameter, value in zip(target.arguments, argument_values):
                callee_frame.registers[parameter] = value
            thread.push_frame(callee_frame)

    def _exec_external(self, thread, frame, instruction: Call,
                       target: ExternalFunction, argument_values: List[int]) -> None:
        event = ExternalCallEvent(
            thread.thread_id, self.step, target.name, argument_values,
            instruction, thread.call_stack(),
        )
        for observer in self.observers:
            observer.on_external_call(event)
        impl = externals.lookup(target.name)
        result = impl(self, thread, instruction, argument_values)
        if thread.state == ThreadState.FINISHED:
            return
        if result is not None:
            frame.registers[instruction] = self._truncate(result, instruction.type)
        elif instruction.type.size() > 0:
            frame.registers[instruction] = 0
        frame.index += 1

    def _exec_ret(self, thread, frame, instruction: Ret) -> None:
        value = (
            self.evaluate(frame, instruction.value)
            if instruction.value is not None else None
        )
        for block in frame.allocas:
            block.freed = True
            block.free_step = self.step
        thread.pop_frame()
        if not thread.frames:
            self.finish_thread(thread, value)
            return
        caller = thread.top
        call_site = frame.call_site
        if call_site is not None:
            if value is not None:
                caller.registers[call_site] = self._truncate(value, call_site.type)
            elif call_site.type.size() > 0:
                caller.registers[call_site] = 0
            caller.index += 1
