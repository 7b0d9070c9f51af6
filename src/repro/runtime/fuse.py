"""Trace-level superinstructions: fused basic-block execution.

The VM's remaining per-instruction overhead after PR 5's dispatch table is
the run-loop itself: one scheduler decision, one runnable-list pass, one
``step_thread`` frame and one dispatch lookup *per instruction*.  This
module compiles hot straight-line runs of load/store/arith/cast
instructions inside a basic block into a tuple of micro-ops — a
"superinstruction" — that the VM executes in a single call while emitting
exactly the same :class:`~repro.runtime.events.AccessEvent`s, faults and
step increments as stepwise execution.

Where fusion runs.  Fusion is a property of the VM and its scheduler, not
an option:

- Every VM fuses unless it runs in reference mode or under
  :func:`repro.runtime.interpreter.stepwise_execution` (the oracle's
  switch), and only under a scheduler that can commit runs
  (``Scheduler.commits_runs``: round-robin, PCT and random).  The wrapper
  schedulers — scripted, record, replay, switch tracking, profiling —
  observe every decision, so a VM driven by one gets no engine at all.
- A plan is looked up or compiled only at a scheduling decision where the
  scheduler can grant a run of at least 2 (``Scheduler.can_commit``):
  round-robin inside a quantum, PCT away from a change point, random
  only while exactly one thread is runnable.
- A VM with a debugger attached never fuses (breakpoints are
  per-instruction).

Soundness contract (see also ``Scheduler.run_length``):

- Fusion only spans steps the scheduler has *committed* not to preempt:
  the VM asks ``scheduler.run_length(thread, step, max_len)`` for a
  guaranteed no-preempt run length and fuses at most that many steps.
- Only instructions that cannot block, spawn, exit or switch frames are
  fusible (no calls, no atomics — atomics emit SyncEvents that anchor
  happens-before edges and deserve their own step boundary anyway).
- Each fused sub-step increments ``vm.step`` and ``thread.steps_executed``
  and keeps ``frame.index`` pointing at the executing instruction before
  advancing it, so call stacks, event step stamps and fault records are
  bit-identical to stepwise execution.
- A fault inside a fused run bails out through the exact same fault path
  as ``step_thread`` (recorded once, observers notified, FAULT result).

One engine per module.  :func:`fuse_engine` keeps the engine on the
module (``Module.fuse_engine``, like ``Module.reach_analysis``) and
rebuilds it whenever ``Module.version()`` changes, e.g. after a
:class:`repro.ir.patch.ModulePatcher` edit; serial sweeps, pool workers,
verifiers and repair gates all reach it the same way.  Each fusible
instruction's micro-op is compiled once per engine, and a plan — keyed
per ``(basic block, start offset)`` — is a tuple of those shared ops, so
plans entering one block at different offsets cost a tuple each.  Ops
bake in only static IR properties (operand kinds, type sizes, field
offsets, masks) plus global and function addresses, which every VM of
the module assigns identically (:meth:`FuseEngine.attach` checks).
Dynamic state — memory contents, block layouts re-typed by casts,
realloc/free, an access's atomic flag — is read on every execution, so
plans cannot go stale the way offset-description memos can.  The engine
holds no VM: the executing VM is passed to every lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.function import ExternalFunction, Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Cast,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Store,
)
from repro.ir.types import IntType, PointerType, StructType
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.runtime.errors import FaultEvent, FaultKind, RuntimeFault
from repro.runtime.memory import MemoryBlock

MASK64 = (1 << 64) - 1

#: Executions of a (block, offset) site before it is compiled.  The VM's
#: basic blocks are short (a handful of instructions) and every seed gets
#: a fresh VM, so warm-up must be cheap: compile on the second execution.
HOT_THRESHOLD = 2

#: A fused run must replace at least this many steps to be worth a plan.
MIN_RUN = 2

#: Upper bound on micro-ops per plan (traces span blocks through
#: unconditional branches; the cap bounds compile time and keeps partial
#: runs — ``run_length`` rarely grants more — from wasting plan space).
MAX_TRACE = 64


class FusePlan:
    """A compiled straight-line run: one micro-op per fused instruction."""

    __slots__ = ("ops", "start", "length")

    def __init__(self, ops: Tuple[Callable, ...], start: int):
        self.ops = ops
        self.start = start
        self.length = len(ops)

    def __repr__(self) -> str:
        return "<FusePlan start=%d length=%d>" % (self.start, self.length)


# ----------------------------------------------------------------------
# operand readers

def _compile_reader(vm, operand: Value) -> Optional[Callable]:
    """Precompiled equivalent of ``VM.evaluate`` for one operand.

    Constants and global/function addresses fold to plain closures over a
    precomputed integer; register operands keep the exact KeyError ->
    "use of undefined value" fault of the interpreter path.  Returns None
    for operand kinds ``evaluate`` would reject — the run is simply not
    fused there.
    """
    if isinstance(operand, Constant):
        value = operand.value
        if isinstance(operand.type, IntType):
            value &= (1 << operand.type.bits) - 1
        else:
            value &= MASK64

        def read_constant(frame, value=value):
            return value

        return read_constant
    if isinstance(operand, GlobalVariable):
        address = vm._global_addresses[operand.name]

        def read_global(frame, address=address):
            return address

        return read_global
    if isinstance(operand, (Function, ExternalFunction)):
        address = vm._function_addresses[operand.name]

        def read_function(frame, address=address):
            return address

        return read_function
    if isinstance(operand, (Argument, Instruction)):
        message = "use of undefined value %s" % operand.short_name()

        def read_register(frame, operand=operand, message=message):
            try:
                return frame.registers[operand]
            except KeyError:
                raise RuntimeFault(FaultEvent(
                    FaultKind.WILD_ACCESS, -1, message,
                )) from None

        return read_register
    return None


# ----------------------------------------------------------------------
# per-class micro-op compilers (each mirrors the matching VM._exec_*
# handler; the differential oracle and the hypothesis differential test
# hold them bit-identical)

def _compile_load(vm, instruction: Load) -> Optional[Callable]:
    read_pointer = _compile_reader(vm, instruction.pointer)
    if read_pointer is None:
        return None
    size = max(1, instruction.type.size())

    def op(vm, thread, frame, instruction=instruction):
        memory = vm.memory
        address = read_pointer(frame)
        block, fault = memory.check_access(
            address, size, False, thread.thread_id, vm.step,
            thread.call_stack(),
        )
        if fault is not None:
            vm.raise_fault(fault)
        value = memory.read_int(address, size, signed=False)
        frame.registers[instruction] = value
        vm.emit_access(thread, instruction, address, size, False, value,
                       is_atomic=instruction.atomic)
        frame.index += 1

    return op


def _compile_store(vm, instruction: Store) -> Optional[Callable]:
    read_pointer = _compile_reader(vm, instruction.pointer)
    read_value = _compile_reader(vm, instruction.value)
    if read_pointer is None or read_value is None:
        return None
    size = max(1, instruction.value.type.size())

    def op(vm, thread, frame, instruction=instruction):
        memory = vm.memory
        address = read_pointer(frame)
        value = read_value(frame)
        block, fault = memory.check_access(
            address, size, True, thread.thread_id, vm.step,
            thread.call_stack(),
        )
        if fault is not None:
            vm.raise_fault(fault)
        memory.write_int(address, value, size)
        vm.emit_access(thread, instruction, address, size, True, value,
                       is_atomic=instruction.atomic)
        frame.index += 1

    return op


def _compile_binop(vm, instruction: BinOp) -> Optional[Callable]:
    read_lhs = _compile_reader(vm, instruction.lhs)
    read_rhs = _compile_reader(vm, instruction.rhs)
    if read_lhs is None or read_rhs is None:
        return None
    bits = (instruction.type.bits
            if isinstance(instruction.type, IntType) else 64)
    mask = (1 << bits) - 1
    sign = bits - 1
    operator = instruction.op
    location = instruction.location

    unsigned = {
        "add": lambda lhs, rhs: lhs + rhs,
        "sub": lambda lhs, rhs: lhs - rhs,
        "mul": lambda lhs, rhs: lhs * rhs,
        "and": lambda lhs, rhs: lhs & rhs,
        "or": lambda lhs, rhs: lhs | rhs,
        "xor": lambda lhs, rhs: lhs ^ rhs,
        "shl": lambda lhs, rhs, bits=bits: lhs << (rhs % bits),
        "lshr": lambda lhs, rhs, bits=bits: lhs >> (rhs % bits),
    }.get(operator)
    if unsigned is not None:
        def op(vm, thread, frame, instruction=instruction):
            frame.registers[instruction] = (
                unsigned(read_lhs(frame), read_rhs(frame)) & mask
            )
            frame.index += 1

        return op

    if operator not in ("udiv", "urem", "sdiv", "srem", "ashr"):
        return None

    def op(vm, thread, frame, instruction=instruction):
        lhs = read_lhs(frame)
        rhs = read_rhs(frame)
        if operator != "ashr" and rhs == 0:
            vm.raise_fault(FaultEvent(
                FaultKind.DIVISION_BY_ZERO, thread.thread_id,
                "division by zero at %s" % location,
                call_stack=thread.call_stack(), step=vm.step,
            ))
        if operator == "udiv":
            result = lhs // rhs
        elif operator == "urem":
            result = lhs % rhs
        else:
            signed_lhs = lhs - (1 << bits) if lhs >> sign else lhs
            signed_rhs = rhs - (1 << bits) if rhs >> sign else rhs
            if operator == "sdiv":
                result = int(signed_lhs / signed_rhs) if signed_rhs else 0
            elif operator == "srem":
                result = (signed_lhs
                          - int(signed_lhs / signed_rhs) * signed_rhs)
            else:  # ashr
                result = signed_lhs >> (rhs % bits)
        frame.registers[instruction] = result & mask
        frame.index += 1

    return op


def _compile_icmp(vm, instruction: ICmp) -> Optional[Callable]:
    read_lhs = _compile_reader(vm, instruction.lhs)
    read_rhs = _compile_reader(vm, instruction.rhs)
    if read_lhs is None or read_rhs is None:
        return None
    lhs_type = instruction.lhs.type
    bits = lhs_type.bits if isinstance(lhs_type, IntType) else 64
    sign = bits - 1
    wrap = 1 << bits
    predicate = instruction.predicate
    signed = predicate.startswith("s")
    compare = {
        "eq": lambda lhs, rhs: lhs == rhs,
        "ne": lambda lhs, rhs: lhs != rhs,
        "slt": lambda lhs, rhs: lhs < rhs,
        "ult": lambda lhs, rhs: lhs < rhs,
        "sle": lambda lhs, rhs: lhs <= rhs,
        "ule": lambda lhs, rhs: lhs <= rhs,
    }.get(predicate)
    if compare is None:
        if predicate in ("sgt", "ugt"):
            compare = lambda lhs, rhs: lhs > rhs  # noqa: E731
        else:  # sge / uge (the reference's final else-arm)
            compare = lambda lhs, rhs: lhs >= rhs  # noqa: E731

    def op(vm, thread, frame, instruction=instruction):
        lhs = read_lhs(frame)
        rhs = read_rhs(frame)
        if signed:
            lhs = lhs - wrap if lhs >> sign else lhs
            rhs = rhs - wrap if rhs >> sign else rhs
        frame.registers[instruction] = 1 if compare(lhs, rhs) else 0
        frame.index += 1

    return op


def _compile_gep(vm, instruction: GetElementPtr) -> Optional[Callable]:
    read_base = _compile_reader(vm, instruction.base)
    if read_base is None:
        return None
    if instruction.field is not None:
        pointee = instruction.base.type.pointee
        offset = pointee.field_offset(instruction.field)

        def op(vm, thread, frame, instruction=instruction):
            frame.registers[instruction] = (read_base(frame) + offset) & MASK64
            frame.index += 1

        return op
    read_index = _compile_reader(vm, instruction.index)
    if read_index is None:
        return None
    element_size = instruction.type.pointee.size()

    def op(vm, thread, frame, instruction=instruction):
        index = read_index(frame)
        if index >> 63:  # negative index (two's complement)
            index -= 1 << 64
        frame.registers[instruction] = (
            read_base(frame) + index * element_size
        ) & MASK64
        frame.index += 1

    return op


def _compile_cast(vm, instruction: Cast) -> Optional[Callable]:
    read_value = _compile_reader(vm, instruction.value)
    if read_value is None:
        return None
    if isinstance(instruction.type, IntType):
        mask = (1 << instruction.type.bits) - 1
    else:
        mask = MASK64
    pointee = (instruction.type.pointee
               if isinstance(instruction.type, PointerType) else None)
    types_struct = isinstance(pointee, StructType)

    def op(vm, thread, frame, instruction=instruction):
        value = read_value(frame) & mask
        frame.registers[instruction] = value
        if types_struct:
            # Struct-pointer casts retype raw heap blocks (field layouts
            # for overflow attribution); the scalar/opaque-pointer cases
            # are compile-time no-ops in _maybe_type_block.
            vm._maybe_type_block(instruction, value)
        frame.index += 1

    return op


def _compile_br(vm, instruction: Br) -> Optional[Callable]:
    if instruction.is_conditional:
        read_condition = _compile_reader(vm, instruction.condition)
        if read_condition is None:
            return None
        true_block = instruction.true_block
        false_block = instruction.false_block

        def op(vm, thread, frame):
            frame.block = true_block if read_condition(frame) else false_block
            frame.index = 0

        return op
    target = instruction.true_block

    def op(vm, thread, frame):
        frame.block = target
        frame.index = 0

    return op


def _compile_alloca(vm, instruction: Alloca) -> Optional[Callable]:
    allocated_type = instruction.allocated_type
    size = allocated_type.size()

    def op(vm, thread, frame, instruction=instruction):
        block = vm.memory.allocate(
            size, MemoryBlock.STACK,
            name="%s.%s" % (frame.function.name, instruction.name or "tmp"),
            value_type=allocated_type, step=vm.step,
        )
        frame.allocas.append(block)
        frame.registers[instruction] = block.base
        frame.index += 1

    return op


#: Fusible instruction classes in the dispatch table's isinstance order.
#: Branches fuse too — an unconditional Br lets the trace continue into
#: the successor block, a conditional Br ends it (the successor depends
#: on a runtime value).  Call can block/spawn/exit; Ret can finish the
#: thread (changing the runnable set mid-run); AtomicRMW emits SyncEvents
#: that anchor happens-before edges and keeps its own step.
_COMPILER_BASES = (
    (Alloca, _compile_alloca),
    (Load, _compile_load),
    (Store, _compile_store),
    (BinOp, _compile_binop),
    (ICmp, _compile_icmp),
    (GetElementPtr, _compile_gep),
    (Cast, _compile_cast),
    (Br, _compile_br),
)


def _compiler_for(instruction: Instruction) -> Optional[Callable]:
    for base, compiler in _COMPILER_BASES:
        if isinstance(instruction, base):
            return compiler
    return None


class FuseEngine:
    """One module's micro-op cache, plan cache, hotness tracker and counters.

    Built by :func:`fuse_engine`, never directly by a VM.  Plans compiled
    during seed 0 are reused by seed 19 and by every verifier or gate VM
    of the module, so the compile cost amortizes across the whole run.
    Micro-ops read all dynamic state through the executing VM, which every
    lookup passes in; the only per-VM values they bake in are global and
    function addresses, which VMs assign deterministically from the
    module — :meth:`attach` verifies that and starts over if a VM with a
    different address layout ever shows up (a patch that adds a global or
    declares an external changes it without changing the version).
    """

    def __init__(self, module, hot_threshold: int = HOT_THRESHOLD):
        #: ``module.version()`` this engine was built for
        self.version = module.version()
        self._signature: Optional[Tuple[Dict, Dict]] = None
        self.hot_threshold = hot_threshold
        #: instruction -> its micro-op, or None when it cannot fuse; every
        #: plan running through the instruction shares the op
        self._ops: Dict[Instruction, Optional[Callable]] = {}
        #: (block, offset) -> FusePlan, or None once the site is known to
        #: be unfusible (so the per-decision probe stays one dict lookup).
        self._plans: Dict[tuple, Optional[FusePlan]] = {}
        self._heat: Dict[tuple, int] = {}
        self.compiled = 0
        self.fused_runs = 0
        self.fused_steps = 0
        self.bailouts = 0
        self.invalidations = 0

    def attach(self, vm) -> "FuseEngine":
        """Validate a VM's address layout against the baked one."""
        signature = (vm._global_addresses, vm._function_addresses)
        if self._signature is None:
            self._signature = (dict(signature[0]), dict(signature[1]))
        elif (self._signature[0] != signature[0]
              or self._signature[1] != signature[1]):
            # A VM with a different global/function address layout: every
            # compiled reader is wrong for it.  Drop the ops and plans and
            # re-sign rather than execute against stale addresses.
            self.invalidate()
            self._signature = (dict(signature[0]), dict(signature[1]))
        return self

    def plan_for(self, vm, thread) -> Optional[FusePlan]:
        """The compiled plan starting at the thread's program counter.

        Returns None while the site is cold or when it cannot be fused;
        sites that fail to compile are cached as None so steady-state
        probing costs one dict lookup.
        """
        if not thread.frames:
            return None
        frame = thread.frames[-1]
        key = (frame.block, frame.index)
        plans = self._plans
        if key in plans:
            return plans[key]
        heat = self._heat.get(key, 0) + 1
        if heat < self.hot_threshold:
            self._heat[key] = heat
            return None
        self._heat.pop(key, None)
        plan = self._compile(vm, frame.block, frame.index)
        plans[key] = plan
        return plan

    def _op(self, vm, instruction: Instruction) -> Optional[Callable]:
        """The instruction's shared micro-op (None: not fusible)."""
        ops = self._ops
        if instruction in ops:
            return ops[instruction]
        compiler = _compiler_for(instruction)
        op = compiler(vm, instruction) if compiler is not None else None
        ops[instruction] = op
        return op

    def _compile(self, vm, block, start: int) -> Optional[FusePlan]:
        """Compile the trace starting at ``(block, start)``.

        The trace is the longest run of fusible instructions from there:
        straight-line within a block, and continuing into the successor
        block across *unconditional* branches (the path is static).  A
        conditional branch fuses as the trace's final op — its successor
        depends on a runtime value, so the next plan takes over there.
        Revisiting a block ends the trace (loops re-enter the plan from
        the top instead of unrolling).
        """
        ops: List[Callable] = []
        index = start
        visited = {block}
        while len(ops) < MAX_TRACE:
            instructions = block.instructions
            if index >= len(instructions):
                break
            instruction = instructions[index]
            op = self._op(vm, instruction)
            if op is None:
                break
            ops.append(op)
            if isinstance(instruction, Br):
                if instruction.is_conditional:
                    break
                target = instruction.true_block
                if target in visited:
                    break
                visited.add(target)
                block = target
                index = 0
            else:
                index += 1
        if len(ops) < MIN_RUN:
            return None
        self.compiled += 1
        return FusePlan(tuple(ops), start)

    def invalidate(self) -> None:
        """Drop every op, plan and heat counter (address layout change)."""
        self._ops.clear()
        self._plans.clear()
        self._heat.clear()
        self.invalidations += 1

    def counters(self) -> Dict[str, int]:
        return {
            "compiled": self.compiled,
            "fused_runs": self.fused_runs,
            "fused_steps": self.fused_steps,
            "bailouts": self.bailouts,
            "invalidations": self.invalidations,
        }


def fuse_engine(module) -> FuseEngine:
    """The module's :class:`FuseEngine`, built on first use and rebuilt
    whenever ``module.version()`` changes.

    It is kept on the module itself, so it lives exactly as long as the
    module does.
    """
    engine = module.fuse_engine
    if engine is None or engine.version != module.version():
        engine = FuseEngine(module)
        module.fuse_engine = engine
    return engine
