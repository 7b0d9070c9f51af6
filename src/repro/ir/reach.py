"""Static may-reach summaries: can a thread still execute a target instruction?

The race verifier (paper section 5.2) catches a race only when two distinct
threads are halted at the two racing instructions at the same time.  This
module answers, for any thread position, which of three things that thread
may still do, conservatively:

- ``RACE``: execute one of the target instructions;
- ``SPAWN``: start a thread whose own entry summary is non-empty;
- ``UNKNOWN``: reach an indirect call, or a ``thread_create`` whose target is
  not a constant function (code this analysis cannot see).

A position ``(block, index)`` covers the rest of its block, every block
reachable from it in the CFG, and every direct callee reachable from there.
An outer frame of a call stack covers its function from the instruction
after its call site.  A thread's summary is the union over its frames.

Once no live thread has ``SPAWN`` or ``UNKNOWN`` and fewer than two have
``RACE`` (:meth:`TargetReach.out_of_reach`), no two threads can ever again
be at the targets together: summaries only shrink as threads execute, and a
thread created later is covered by its creator's ``SPAWN`` bit.  The rule
therefore holds for the rest of the run once it holds.

:class:`ReachAnalysis` is the target-independent part (reachable blocks,
calls, spawn sites), built once per module by :func:`reach_analysis`;
:meth:`ReachAnalysis.for_targets` adds the per-report part, including the
*watch set*: the instructions after which some thread's summary can shrink,
the only places the rule's answer can change.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Br, Call, Instruction
from repro.ir.module import Module

RACE = 1
SPAWN = 2
UNKNOWN = 4

# Kinds of the instructions that matter to a summary besides the targets.
_CALL = "call"        # direct call of an internal function (payload: callee)
_SPAWN = "spawn"      # thread_create of a constant function (payload: entry)
_UNKNOWN = "unknown"  # indirect call, or thread_create of a computed target
_EXIT = "exit"        # thread_exit: the whole thread ends here

Event = Tuple[int, Instruction, str, object]


def _event(instruction: Instruction):
    """``(kind, payload)`` for an instruction that matters, else None."""
    if not isinstance(instruction, Call):
        return None
    callee = instruction.callee
    if isinstance(callee, Function):
        return (_CALL, callee) if callee.blocks else None
    if instruction.is_indirect:
        return (_UNKNOWN, None)
    if callee.name == "thread_create":
        entry = instruction.operands[0] if instruction.operands else None
        if isinstance(entry, Function) and entry.blocks:
            return (_SPAWN, entry)
        return (_UNKNOWN, None)
    if callee.name == "thread_exit":
        return (_EXIT, None)
    return None


def _closure(seeds: Iterable, edges: Dict) -> Set:
    """Everything reachable from ``seeds`` along ``edges`` (seeds included)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for other in edges.get(stack.pop(), ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


class ReachAnalysis:
    """The target-independent facts of one module."""

    def __init__(self, module: Module):
        self.module = module
        #: reachable blocks of each function, successors before predecessors
        self.blocks: Dict[Function, List[BasicBlock]] = {}
        self.successors: Dict[BasicBlock, List[BasicBlock]] = {}
        self.events: Dict[BasicBlock, List[Event]] = {}
        self.callers: Dict[Function, Set[Function]] = {}
        spawners: Dict[Function, Set[Function]] = {}
        self.spawns: Dict[Function, Set[Function]] = {}
        direct_unknown: Set[Function] = set()
        exits: List[Instruction] = []
        for function in module.functions.values():
            if not function.blocks:
                continue
            self.blocks[function] = self._postorder(function.entry)
            self.spawns[function] = set()
            for block in self.blocks[function]:
                events = []
                for index, instruction in enumerate(block.instructions):
                    event = _event(instruction)
                    if event is None:
                        continue
                    kind, payload = event
                    events.append((index, instruction, kind, payload))
                    if kind is _CALL:
                        self.callers.setdefault(payload, set()).add(function)
                    elif kind is _SPAWN:
                        self.spawns[function].add(payload)
                        spawners.setdefault(payload, set()).add(function)
                    elif kind is _UNKNOWN:
                        direct_unknown.add(function)
                    else:
                        exits.append(instruction)
                self.events[block] = events
        #: callee or spawned function -> the functions that call or spawn it
        self.entered_from: Dict[Function, Set[Function]] = {
            function: self.callers.get(function, set())
            | spawners.get(function, set())
            for function in self.blocks
        }
        #: functions that may reach unknown code through direct calls
        self.unknown: FrozenSet[Function] = frozenset(
            _closure(direct_unknown, self.callers))
        #: every reachable thread_exit call: a thread's summary drops to
        #: nothing there, whatever its outer frames still cover
        self.exits: FrozenSet[Instruction] = frozenset(exits)
        self._version = module.version()

    def _postorder(self, entry: BasicBlock) -> List[BasicBlock]:
        order: List[BasicBlock] = []
        self.successors[entry] = entry.successors()
        seen = {entry}
        stack = [(entry, iter(self.successors[entry]))]
        while stack:
            block, successors = stack[-1]
            for successor in successors:
                if successor not in seen:
                    seen.add(successor)
                    self.successors[successor] = successor.successors()
                    stack.append(
                        (successor, iter(self.successors[successor])))
                    break
            else:
                order.append(block)
                stack.pop()
        return order

    def for_targets(self, targets: Sequence[Instruction]) -> "TargetReach":
        return TargetReach(self, targets)


class TargetReach:
    """Summaries of every position with respect to one set of targets."""

    def __init__(self, analysis: ReachAnalysis, targets: Sequence[Instruction]):
        self.analysis = analysis
        self.module = analysis.module
        self.targets = frozenset(targets)
        racing_directly = {
            target.block.function for target in self.targets
            if target.block is not None and target.block in analysis.successors
        }
        racing = _closure(racing_directly, analysis.callers)
        # A function is live when a thread entering it may do anything the
        # rule cares about: race, reach unknown code, or (transitively)
        # start such a thread.
        self.live = frozenset(
            _closure(racing | analysis.unknown, analysis.entered_from))
        spawning = _closure(
            (function for function, entries in analysis.spawns.items()
             if not entries.isdisjoint(self.live)),
            analysis.callers)
        self.summary: Dict[Function, int] = {}
        for function in self.live:
            bits = ((RACE if function in racing else 0)
                    | (SPAWN if function in spawning else 0)
                    | (UNKNOWN if function in analysis.unknown else 0))
            if bits:
                self.summary[function] = bits
        #: per block of a function with a non-empty summary: the summary of
        #: each position 0..len(block) (the last one is "after the block")
        self._positions: Dict[BasicBlock, List[int]] = {}
        watch = set(analysis.exits)
        for function in self.summary:
            self._summarize(function, watch)
        self.watch: FrozenSet[Instruction] = frozenset(watch)

    # ------------------------------------------------------------------
    # construction

    def _own_bits(self, block: BasicBlock) -> Dict[int, int]:
        """Index -> bits of the block's instructions that contribute any."""
        own: Dict[int, int] = {}
        for index, _instruction, kind, payload in self.analysis.events[block]:
            if kind is _CALL:
                bits = self.summary.get(payload, 0)
            elif kind is _SPAWN:
                bits = SPAWN if payload in self.live else 0
            elif kind is _UNKNOWN:
                bits = UNKNOWN
            else:
                bits = 0
            if bits:
                own[index] = bits
        for target in self.targets:
            if target.block is block:
                index = block.instructions.index(target)
                own[index] = own.get(index, 0) | RACE
        return own

    def _summarize(self, function: Function, watch: Set[Instruction]) -> None:
        analysis = self.analysis
        blocks = analysis.blocks[function]
        successors = analysis.successors
        own = {block: self._own_bits(block) for block in blocks}
        # from_start[b]: the summary at the top of b.  Postorder visits
        # successors first, so acyclic code settles in one pass and each
        # loop in at most one more per bit.
        from_start = {block: _union(own[block].values()) for block in blocks}
        changed = True
        while changed:
            changed = False
            for block in blocks:
                bits = from_start[block]
                for successor in successors[block]:
                    bits |= from_start[successor]
                if bits != from_start[block]:
                    from_start[block] = bits
                    changed = True
        for block in blocks:
            after = 0
            for successor in successors[block]:
                after |= from_start[successor]
            positions = [after] * (len(block.instructions) + 1)
            bits = after
            for index in range(len(block.instructions) - 1, -1, -1):
                bits |= own[block].get(index, 0)
                positions[index] = bits
            self._positions[block] = positions
            self._watch_block(block, positions, from_start, watch)

    def _watch_block(self, block: BasicBlock, positions: List[int],
                     from_start: Dict[BasicBlock, int],
                     watch: Set[Instruction]) -> None:
        """Add the block's instructions after which the summary can shrink.

        A direct call never shrinks it (the callee's entry summary is the
        call's contribution); a branch shrinks it when some successor's
        summary is smaller than the union over all successors.
        """
        for index, instruction in enumerate(block.instructions):
            before = positions[index]
            if not before:
                continue
            if isinstance(instruction, Br):
                if any(from_start[successor] != before
                       for successor in self.analysis.successors[block]):
                    watch.add(instruction)
                continue
            after = positions[index + 1]
            if (isinstance(instruction, Call)
                    and isinstance(instruction.callee, Function)):
                after |= self.summary.get(instruction.callee, 0)
            if before & ~after:
                watch.add(instruction)

    # ------------------------------------------------------------------
    # queries

    def bits_at(self, block: BasicBlock, index: int) -> int:
        """The summary of a thread about to execute ``block[index]``."""
        positions = self._positions.get(block)
        return positions[index] if positions is not None else 0

    def stack_bits(self, frames: Sequence) -> int:
        """The summary of a call stack (objects with ``block`` and
        ``index``, innermost last; outer frames sit on their call sites)."""
        if not frames:
            return 0
        top = frames[-1]
        bits = self.bits_at(top.block, top.index)
        for frame in frames[:-1]:
            bits |= self.bits_at(frame.block, frame.index + 1)
        return bits

    def out_of_reach(self, stacks: Iterable[Sequence]) -> bool:
        """True once no two of these live call stacks can ever again be at
        the targets together: none may spawn or reach unknown code, and
        fewer than two may still execute a target."""
        racing = 0
        for frames in stacks:
            bits = self.stack_bits(frames)
            if bits & (SPAWN | UNKNOWN):
                return False
            if bits & RACE:
                racing += 1
                if racing > 1:
                    return False
        return True


def _union(values: Iterable[int]) -> int:
    bits = 0
    for value in values:
        bits |= value
    return bits


def reach_analysis(module: Module) -> ReachAnalysis:
    """The module's :class:`ReachAnalysis`, built once and reused by every
    verifier (in-process or pooled) that executes the module.

    It is kept on the module itself, so it lives exactly as long as the
    module does.
    """
    analysis = module.reach_analysis
    if analysis is None or analysis._version != module.version():
        analysis = ReachAnalysis(module)
        module.reach_analysis = analysis
    return analysis
