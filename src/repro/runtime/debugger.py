"""An LLDB-like debugger for the VM: thread-specific breakpoints.

Paper section 5.2: *"The verifier sets thread specific breakpoints indicated
by TSan race reports.  'Thread specific' means when the breakpoint is
triggered, we only halt that specific thread instead of the whole program.
The rest of the threads are still able to run.  In this way, we can actually
catch the race when both of the racing instructions are reached by different
threads and are accessing the same address."*

This module implements exactly that mechanism; the OWL race verifier and
vulnerability verifier drive it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.ir.instructions import (
    AtomicRMW,
    Call,
    Instruction,
    Load,
    Store,
)
from repro.runtime.errors import RuntimeFault
from repro.runtime.thread import ThreadContext, ThreadState


class Breakpoint:
    """A breakpoint on one instruction, optionally filtered to one thread.

    ``thread_filter`` may be a thread id (int), a thread name (str) or None
    (any thread).  A disabled breakpoint never triggers; ``skip_next`` lets
    the controller step a halted thread past its own breakpoint on resume.
    """

    def __init__(
        self,
        instruction: Instruction,
        thread_filter: Optional[Union[int, str]] = None,
    ):
        self.instruction = instruction
        self.thread_filter = thread_filter
        self.enabled = True
        self.hit_count = 0
        self._skip: Dict[int, int] = {}

    def matches(self, thread: ThreadContext, instruction: Instruction) -> bool:
        if not self.enabled or instruction is not self.instruction:
            return False
        if isinstance(self.thread_filter, int):
            if thread.thread_id != self.thread_filter:
                return False
        elif isinstance(self.thread_filter, str):
            if thread.name != self.thread_filter:
                return False
        if self._skip.get(thread.thread_id, 0) > 0:
            self._skip[thread.thread_id] -= 1
            return False
        return True

    def skip_once(self, thread_id: int) -> None:
        self._skip[thread_id] = self._skip.get(thread_id, 0) + 1

    def __repr__(self) -> str:
        return "<Breakpoint %s filter=%r hits=%d>" % (
            self.instruction.location, self.thread_filter, self.hit_count,
        )


class PendingAccess:
    """What a halted thread is about to do: the 'racing moment' snapshot."""

    def __init__(self, instruction: Instruction, address: Optional[int],
                 is_write: bool, value: Optional[int], value_type: str):
        self.instruction = instruction
        self.address = address
        self.is_write = is_write
        self.value = value
        self.value_type = value_type

    def __repr__(self) -> str:
        mode = "write" if self.is_write else "read"
        return "<Pending %s of %s addr=%s val=%r>" % (
            mode, self.value_type,
            hex(self.address) if self.address is not None else "?", self.value,
        )


class Debugger:
    """Owns the VM's breakpoints and halted-thread bookkeeping."""

    def __init__(self, vm):
        self.vm = vm
        self.breakpoints: List[Breakpoint] = []
        self.last_hit: Optional[Tuple[ThreadContext, Breakpoint]] = None
        #: the armed early stop (:meth:`stop_when_out_of_reach`), if any
        self.reach = None
        #: instructions after which the VM re-checks the early stop
        self.watch: FrozenSet[Instruction] = frozenset()
        #: when set, every instruction a thread is scheduled at and not
        #: halted before goes in (the trunk a run took over records its
        #: prefix: :class:`repro.owl.race_verifier.Trunk`)
        self.trail: Optional[Set[Instruction]] = None
        vm.debugger = self

    def detach(self) -> None:
        """End the run: the VM forgets its debugger.

        ``Debugger.__init__`` makes the VM and its debugger refer to each
        other; detaching breaks that cycle, so a finished run's VM is
        freed as soon as its last reference goes, not by the cyclic
        collector.  The debugger's own methods keep working.
        """
        if self.vm.debugger is self:
            self.vm.debugger = None

    # ------------------------------------------------------------------
    # breakpoint management

    def add_breakpoint(self, instruction: Instruction,
                       thread_filter: Optional[Union[int, str]] = None) -> Breakpoint:
        breakpoint = Breakpoint(instruction, thread_filter)
        self.breakpoints.append(breakpoint)
        return breakpoint

    def remove_breakpoint(self, breakpoint: Breakpoint) -> None:
        if breakpoint in self.breakpoints:
            self.breakpoints.remove(breakpoint)

    def clear(self) -> None:
        self.breakpoints = []

    def check(self, thread: ThreadContext, instruction: Instruction) -> bool:
        """VM hook: should ``thread`` halt before executing ``instruction``?"""
        for breakpoint in self.breakpoints:
            if breakpoint.matches(thread, instruction):
                breakpoint.hit_count += 1
                self.last_hit = (thread, breakpoint)
                return True
        if self.trail is not None:
            self.trail.add(instruction)
        return False

    # ------------------------------------------------------------------
    # early stop

    def stop_when_out_of_reach(self, reach) -> None:
        """Arm the early stop for a :class:`repro.ir.reach.TargetReach`.

        ``VM.run`` then returns ``ExecutionResult.OUT_OF_REACH`` once no
        two live threads can ever again be at the reach's targets together.
        It checks on entry and after each instruction in ``reach.watch``;
        reference-mode VMs never check.
        """
        self.reach = reach
        self.watch = reach.watch

    def targets_out_of_reach(self) -> bool:
        """Whether the armed early stop's rule holds now."""
        return self.reach is not None and self.reach.out_of_reach(
            thread.frames for thread in self.vm._alive)

    # ------------------------------------------------------------------
    # halted-thread control

    def halted_threads(self) -> List[ThreadContext]:
        return [
            t for t in self.vm.threads.values() if t.state == ThreadState.HALTED
        ]

    def resume(self, thread: ThreadContext, step_past: bool = True) -> None:
        """Make a halted thread runnable again.

        With ``step_past`` the thread's matching breakpoints are skipped once
        so the thread can execute the very instruction it stopped at.
        """
        if thread.state != ThreadState.HALTED:
            return
        if step_past:
            instruction = thread.current_instruction()
            for breakpoint in self.breakpoints:
                if breakpoint.enabled and breakpoint.instruction is instruction:
                    breakpoint.skip_once(thread.thread_id)
        thread.state = ThreadState.RUNNABLE
        self.vm._halted_count -= 1

    def release_one(self) -> Optional[ThreadContext]:
        """Livelock resolution: temporarily release one triggered breakpoint.

        Paper section 5.2: "We resolve this livelock state by temporarily
        releasing one of the currently triggered breakpoints."
        """
        halted = self.halted_threads()
        if not halted:
            return None
        thread = min(halted, key=lambda t: t.thread_id)
        self.resume(thread, step_past=True)
        return thread

    # ------------------------------------------------------------------
    # inspection

    def pending_access(self, thread: ThreadContext) -> Optional[PendingAccess]:
        """The memory access ``thread`` is about to perform, if any.

        Operand values are already computed SSA registers, so the address and
        value can be read without executing the instruction — the debugger's
        equivalent of inspecting registers at a breakpoint.  An operand
        :meth:`VM.evaluate` cannot read (undefined or unsupported) means
        no access; any other error propagates.
        """
        instruction = thread.current_instruction()
        if instruction is None or not thread.frames:
            return None
        frame = thread.top
        evaluate = self.vm.evaluate
        try:
            if isinstance(instruction, Load):
                address = evaluate(frame, instruction.pointer)
                return PendingAccess(
                    instruction, address, False, None, str(instruction.type),
                )
            if isinstance(instruction, Store):
                address = evaluate(frame, instruction.pointer)
                value = evaluate(frame, instruction.value)
                return PendingAccess(
                    instruction, address, True, value, str(instruction.value.type),
                )
            if isinstance(instruction, AtomicRMW):
                address = evaluate(frame, instruction.pointer)
                value = evaluate(frame, instruction.value)
                return PendingAccess(
                    instruction, address, True, value, str(instruction.type),
                )
            if isinstance(instruction, Call):
                return PendingAccess(instruction, None, False, None, "call")
        except RuntimeFault:
            return None
        return None

    def peek_memory(self, address: int, size: int) -> Optional[int]:
        """Read memory without emitting events (debugger inspection)."""
        block = self.vm.memory.block_at(address)
        if block is None or address + size > block.end:
            return None
        return self.vm.memory.read_int(address, size, signed=False)
