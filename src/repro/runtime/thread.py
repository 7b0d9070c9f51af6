"""Threads, frames and call stacks."""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Call, Instruction
from repro.ir.values import Value

CallStack = Tuple[Tuple[str, str, int], ...]


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    HALTED = "halted"  # stopped at a debugger breakpoint
    FINISHED = "finished"


class Frame:
    """One activation record: function, program counter, SSA registers."""

    def __init__(self, function: Function, call_site: Optional[Call] = None):
        self.function = function
        self.call_site = call_site
        self.block = function.entry
        self.index = 0
        self.registers: Dict[Value, int] = {}
        # Stack blocks owned by this frame (freed logically on return).
        self.allocas: List = []

    def current_instruction(self) -> Optional[Instruction]:
        if self.index < len(self.block.instructions):
            return self.block.instructions[self.index]
        return None

    def jump(self, block) -> None:
        self.block = block
        self.index = 0

    def copy(self, blocks: Dict[int, object]) -> "Frame":
        """A copy with its own registers, its allocas mapped through
        ``blocks`` (base address -> the copied block)."""
        frame = Frame.__new__(Frame)
        frame.function = self.function
        frame.call_site = self.call_site
        frame.block = self.block
        frame.index = self.index
        frame.registers = dict(self.registers)
        frame.allocas = [blocks[block.base] for block in self.allocas]
        return frame

    def __repr__(self) -> str:
        inst = self.current_instruction()
        where = str(inst.location) if inst is not None else "<end>"
        return "<Frame %s at %s>" % (self.function.name, where)


class ThreadContext:
    """One simulated thread."""

    def __init__(self, thread_id: int, name: str, entry: Function,
                 argument_values: Optional[List[int]] = None,
                 memoize_stack: bool = True):
        self.thread_id = thread_id
        self.name = name
        self.state = ThreadState.RUNNABLE
        self.frames: List[Frame] = []
        self.blocked_on: Optional[str] = None
        self.wake_step: Optional[int] = None  # for io_delay / usleep
        # ``blocked_on`` parsed once at block time ("mutex"/"join"/None plus
        # the address or thread id), so the scheduler's retry scan does not
        # re-parse the reason string on every step.
        self.blocked_kind: Optional[str] = None
        self.blocked_arg = 0
        self.return_value: Optional[int] = None
        self.steps_executed = 0
        #: ``False`` disables the call-stack snapshot memo (reference mode
        #: for the differential oracle, :mod:`repro.runtime.diffcheck`).
        self.memoize_stack = memoize_stack
        # The memo: outer frames only change when the frame list itself
        # changes (push/pop bump ``_stack_version``), so their entries are
        # cached as ``_stack_prefix``; the innermost entry tracks the top
        # frame's program counter via the (block, index) part of the key.
        self._stack_version = 0
        self._stack_key: Optional[tuple] = None
        self._stack_cache: CallStack = ()
        self._stack_prefix: CallStack = ()
        self._stack_prefix_key: Optional[tuple] = None
        frame = Frame(entry)
        values = argument_values or []
        for argument, value in zip(entry.arguments, values):
            frame.registers[argument] = value
        self.frames.append(frame)
        self.held_mutexes: List[int] = []

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def current_instruction(self) -> Optional[Instruction]:
        if not self.frames:
            return None
        return self.top.current_instruction()

    def copy(self, blocks: Dict[int, object]) -> "ThreadContext":
        """A copy for a forked VM: its own frames (see :meth:`Frame.copy`),
        held mutexes and the per-call wait state externals keep in the
        thread's ``__dict__`` (``_cond_state``, ``_sleep_state``)."""
        thread = ThreadContext.__new__(ThreadContext)
        state = {name: value.copy() if type(value) in (dict, list) else value
                 for name, value in self.__dict__.items()}
        state["frames"] = [frame.copy(blocks) for frame in self.frames]
        thread.__dict__.update(state)
        return thread

    # ------------------------------------------------------------------
    # frame-list mutation (the call-stack memo's invalidation points)

    def push_frame(self, frame: Frame) -> None:
        """Enter a callee frame; invalidates the call-stack memo."""
        self.frames.append(frame)
        self._stack_version += 1

    def pop_frame(self) -> Frame:
        """Leave the top frame; invalidates the call-stack memo."""
        frame = self.frames.pop()
        self._stack_version += 1
        return frame

    def clear_frames(self) -> None:
        """Drop all frames (thread exit); invalidates the call-stack memo."""
        self.frames = []
        self._stack_version += 1

    # ------------------------------------------------------------------

    @staticmethod
    def _frame_entry(frame: Frame) -> Tuple[str, str, int]:
        instruction = frame.current_instruction()
        if instruction is not None:
            loc = instruction.location
        elif frame.block.instructions:
            loc = frame.block.instructions[-1].location
        else:
            loc = None
        return (
            frame.function.name,
            loc.filename if loc else frame.function.source_file,
            loc.line if loc else 0,
        )

    def call_stack(self) -> CallStack:
        """Snapshot (function, file, line) per frame, innermost last.

        The innermost entry carries the location of the instruction about to
        execute; outer entries carry their call sites.  This matches the
        call stacks OWL extracts from detector reports (paper Figure 4).

        The snapshot is memoized: outer frames sit on their call sites until
        a push or pop changes the frame list, and the innermost entry only
        changes with the top frame's program counter, so the tuple is
        rebuilt only on call/ret/jump/step — not on every shared-memory
        access that wants a stack.
        """
        frames = self.frames
        if not frames:
            return ()
        if not self.memoize_stack:
            return tuple(self._frame_entry(frame) for frame in frames)
        top = frames[-1]
        depth = len(frames)
        key = (self._stack_version, depth, top.block, top.index)
        if key == self._stack_key:
            return self._stack_cache
        prefix_key = (self._stack_version, depth)
        if prefix_key != self._stack_prefix_key:
            self._stack_prefix = tuple(
                self._frame_entry(frame) for frame in frames[:-1]
            )
            self._stack_prefix_key = prefix_key
        stack = self._stack_prefix + (self._frame_entry(top),)
        self._stack_key = key
        self._stack_cache = stack
        return stack

    def __repr__(self) -> str:
        return "<Thread %d %r %s depth=%d>" % (
            self.thread_id, self.name, self.state.value, len(self.frames),
        )
