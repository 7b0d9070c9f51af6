"""Compiled ops and trace-level superinstructions.

Every VM outside reference mode executes each instruction through a
compiled *op*: one small function per instruction, built once per module
on the instruction's first execution, that does what the instruction's
``VM._exec_*`` handler does with everything static already resolved —
operand kinds, constants, global and function addresses, type sizes,
masks and field offsets.  Operands are the op's default arguments and are
read inline: a register operand is one ``frame.registers`` lookup, a
constant or address is the folded integer itself.  The reference path
(:meth:`repro.runtime.interpreter.VM._execute_reference` over the
unchanged ``_exec_*`` handlers) is the one other implementation of each
instruction class, and the differential oracle
(:mod:`repro.runtime.diffcheck`) holds the two bit-identical.

On top of the ops, hot straight-line runs of alloca/load/store/arith/
cast/branch instructions fuse into a tuple of those ops — a
"superinstruction" — that the VM executes in a single call.  That saves
the run loop's per-instruction scheduler decision, runnable-list pass and
``step_thread`` frame, while emitting exactly the same
:class:`~repro.runtime.events.AccessEvent`s, faults and step increments as
stepwise execution.  A trace that starts at a block entry and ends in a
branch back to that entry is a *loop trace*: the VM cycles its ops while
the branch keeps returning to the start, so a busy-wait (the section 5.1
adhoc-sync spin) pays one scheduling decision per grant rather than one
per iteration.

Where ops run: on every step of every VM that is not in reference mode —
under any scheduler, inside
:func:`repro.runtime.interpreter.stepwise_execution`, and with a debugger
attached.

Where fusion runs.  Fusion is a property of the VM and its scheduler, not
an option:

- A VM fuses only under a scheduler that can commit runs
  (``Scheduler.commits_runs``: round-robin, PCT and random) and outside
  stepwise mode (the oracle's switch).  The wrapper schedulers — scripted,
  record, replay, switch tracking, profiling — observe every decision, so
  a VM driven by one runs its ops one step at a time.
- A plan is looked up or compiled only at a scheduling decision where the
  scheduler can grant a run of at least 2 (``Scheduler.can_commit``):
  round-robin inside a quantum, PCT away from a change point, random
  only while exactly one thread is runnable.
- A VM with a debugger attached never fuses (breakpoints are
  per-instruction).

Soundness contract (see also ``Scheduler.run_length`` and
``Scheduler.commit``):

- Fusion only spans steps the scheduler has *granted* without a
  preemption: the VM asks ``scheduler.run_length(thread, step, max_len)``
  (a pure query) for a guaranteed no-preempt run length and fuses at most
  that many steps — ``max_len`` is the plan's length, or for a loop trace
  the rest of the step budget, clamped by every sleeper's wake step.
  After the run it reports the steps that actually ran through
  ``scheduler.commit(steps)``: a loop may leave, or a fault end the run,
  before the grant is spent.
- Only instructions that cannot block, spawn, exit or switch frames are
  fusible (:data:`FUSIBLE`: no calls, returns or atomics — atomics emit
  SyncEvents that anchor happens-before edges and deserve their own step
  boundary anyway).
- Each fused sub-step increments ``vm.step`` and keeps ``frame.index``
  pointing at the executing instruction before advancing it, so call
  stacks, event step stamps and fault records are bit-identical to
  stepwise execution; ``thread.steps_executed`` catches up when the run
  ends (nothing reads it mid-run).
- A loop trace's run stops at the first iteration whose closing branch
  leaves the start, or when the grant runs out, even mid-iteration; the
  next decision resumes stepwise or through the plan at that offset.
- A read-only loop trace (:data:`READ_ONLY`, ``FusePlan.writes``) that
  reaches a fixed point skips to the end of its grant: once an iteration
  writes the same register values as the one before and records no
  fault, every later iteration repeats it except for its steps (only the
  granted thread runs, and the loop writes no memory).  The VM then
  advances ``vm.step`` over the grant's remaining whole iterations and
  runs any leftover partial iteration as ops, after every observer
  accepted the repeats (``TraceObserver.accepts_repeat``, a pure query);
  each observer gets one ``AccessRepeat`` per load and accounts it as the
  events it stands for.  One refusal and the run goes on unskipped.
  Skipped steps are fused steps: they are counted, and committed to the
  scheduler (the random scheduler's ``commit`` still draws entropy for
  every one); ``skipped_steps`` counts them.
- A fault inside a fused run bails out through the exact same fault path
  as ``step_thread`` (recorded once, observers notified, FAULT result).

One engine per module.  :func:`fuse_engine` keeps the engine on the
module (``Module.fuse_engine``, like ``Module.reach_analysis``) and
rebuilds it whenever ``Module.version()`` changes, e.g. after a
:class:`repro.ir.patch.ModulePatcher` edit; serial sweeps, pool workers,
verifiers and repair gates all reach it the same way.  Each instruction's
op is compiled once per engine, and a plan — keyed per ``(basic block,
start offset)`` — is a tuple of those shared ops, so plans entering one
block at different offsets cost a tuple each.  Ops bake in only static IR
properties plus global and function addresses, which every VM of the
module assigns identically (:meth:`FuseEngine.attach` checks).  Dynamic
state — memory contents, block layouts re-typed by casts, realloc/free,
an access's atomic flag, the external implementations
(``repro.runtime.externals.overridden``) — is read on every execution, so
ops cannot go stale the way offset-description memos can.  The engine
holds no VM: the executing VM is passed to every op and lookup.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.ir.types import IntType, PointerType, StructType
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.runtime import externals
from repro.runtime.errors import FaultEvent, FaultKind, RuntimeFault
from repro.runtime.events import ExternalCallEvent, SyncEvent
from repro.runtime.memory import MemoryBlock
from repro.runtime.thread import Frame, ThreadState

MASK64 = (1 << 64) - 1

#: Executions of a (block, offset) site before it is compiled.  The VM's
#: basic blocks are short (a handful of instructions) and every seed gets
#: a fresh VM, so warm-up must be cheap: compile on the second execution.
HOT_THRESHOLD = 2

#: A fused run must replace at least this many steps to be worth a plan.
MIN_RUN = 2

#: Upper bound on ops per plan (traces span blocks through
#: unconditional branches; the cap bounds compile time and keeps partial
#: runs — ``run_length`` rarely grants more — from wasting plan space).
MAX_TRACE = 64


class FusePlan:
    """A compiled trace: one op per fused instruction.

    ``loop`` is the block a loop trace starts at and returns to (its final
    branch can jump back there), or None for a straight-line plan.
    ``writes`` is set only for a read-only loop trace (every instruction
    in :data:`READ_ONLY`, no atomic load): the registers an iteration
    writes, whose values decide when the loop reaches a fixed point.
    """

    __slots__ = ("ops", "start", "length", "loop", "writes")

    def __init__(self, ops: Tuple[Callable, ...], start: int, loop=None,
                 writes: Optional[Tuple[Instruction, ...]] = None):
        self.ops = ops
        self.start = start
        self.length = len(ops)
        self.loop = loop
        self.writes = writes

    def __repr__(self) -> str:
        return "<FusePlan start=%d length=%d%s>" % (
            self.start, self.length, " loop" if self.loop is not None else "")


# ----------------------------------------------------------------------
# operands

def _mask(type_) -> int:
    """The mask ``VM._truncate`` applies for ``type_``."""
    if isinstance(type_, IntType):
        return (1 << type_.bits) - 1
    return MASK64


def _operand(vm, operand: Value) -> Tuple[object, bool]:
    """An operand as two op default arguments: ``(slot, in_register)``.

    Constants and global/function addresses fold to the integer
    ``VM.evaluate`` returns for them.  Any other operand is read from
    ``frame.registers`` with the operand itself as the key; when no
    register holds it, the op turns the KeyError into ``evaluate``'s
    fault (:func:`_unreadable`).
    """
    if isinstance(operand, Constant):
        return operand.value & _mask(operand.type), False
    if isinstance(operand, GlobalVariable):
        return vm._global_addresses[operand.name], False
    if isinstance(operand, (Function, ExternalFunction)):
        return vm._function_addresses[operand.name], False
    return operand, True


def _unreadable(operand) -> RuntimeFault:
    """The fault ``VM.evaluate`` raises for an operand no register holds."""
    if isinstance(operand, (Argument, Instruction)):
        message = "use of undefined value %s" % operand.short_name()
    else:
        message = "unsupported operand %r" % (operand,)
    return RuntimeFault(FaultEvent(FaultKind.WILD_ACCESS, -1, message))


def _values(registers, operands) -> List[int]:
    """The values of ``(slot, in_register)`` operands, in order."""
    values = []
    for slot, in_register in operands:
        values.append(registers[slot] if in_register else slot)
    return values


# ----------------------------------------------------------------------
# per-class op compilers (each mirrors the matching VM._exec_* handler;
# the differential oracle and the hypothesis differential tests hold
# them bit-identical).  A memory access asks check_access without a call
# stack and attaches the thread's stack to the fault only when there is
# one: check_access uses the stack for nothing else.  A load or store
# that check_access passes reads or writes the returned block's bytes
# directly and hands the block to emit_access: one block lookup per
# access.  Only a tolerated fault (a non-fatal kind) goes through
# read_int's zero-fill or write_int's truncation.

def _compile_load(vm, instruction: Load) -> Callable:
    pointer, pointer_reg = _operand(vm, instruction.pointer)

    def op(vm, thread, frame, instruction=instruction, pointer=pointer,
           pointer_reg=pointer_reg, size=max(1, instruction.type.size())):
        if pointer_reg:
            try:
                pointer = frame.registers[pointer]
            except KeyError:
                raise _unreadable(pointer) from None
        memory = vm.memory
        block, fault = memory.check_access(
            pointer, size, False, thread.thread_id, vm.step)
        if fault is None:
            offset = pointer - block.base
            value = int.from_bytes(block.data[offset:offset + size], "little")
        else:
            fault.call_stack = thread.call_stack()
            vm.raise_fault(fault)
            value = memory.read_int(pointer, size, signed=False)
        frame.registers[instruction] = value
        vm.emit_access(thread, instruction, pointer, size, False, value,
                       instruction.atomic, block)
        frame.index += 1

    return op


def _compile_store(vm, instruction: Store) -> Callable:
    pointer, pointer_reg = _operand(vm, instruction.pointer)
    value, value_reg = _operand(vm, instruction.value)
    size = max(1, instruction.value.type.size())

    def op(vm, thread, frame, instruction=instruction, pointer=pointer,
           pointer_reg=pointer_reg, value=value, value_reg=value_reg,
           size=size, mask=(1 << (size * 8)) - 1):
        registers = frame.registers
        try:
            if pointer_reg:
                pointer = registers[pointer]
            if value_reg:
                value = registers[value]
        except KeyError as missing:
            raise _unreadable(missing.args[0]) from None
        memory = vm.memory
        block, fault = memory.check_access(
            pointer, size, True, thread.thread_id, vm.step)
        if fault is None:
            offset = pointer - block.base
            block.data[offset:offset + size] = (value & mask).to_bytes(
                size, "little")
        else:
            fault.call_stack = thread.call_stack()
            vm.raise_fault(fault)
            memory.write_int(pointer, value, size)
        vm.emit_access(thread, instruction, pointer, size, True, value,
                       instruction.atomic, block)
        frame.index += 1

    return op


#: BinOp operators that are one masked call of an ``operator`` function.
_ARITHMETIC = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}


def _compile_binop(vm, instruction: BinOp) -> Callable:
    lhs, lhs_reg = _operand(vm, instruction.lhs)
    rhs, rhs_reg = _operand(vm, instruction.rhs)
    bits = (instruction.type.bits
            if isinstance(instruction.type, IntType) else 64)
    name = instruction.op
    apply = _ARITHMETIC.get(name)
    if apply is not None:
        def op(vm, thread, frame, instruction=instruction, lhs=lhs,
               lhs_reg=lhs_reg, rhs=rhs, rhs_reg=rhs_reg, apply=apply,
               mask=(1 << bits) - 1):
            registers = frame.registers
            try:
                if lhs_reg:
                    lhs = registers[lhs]
                if rhs_reg:
                    rhs = registers[rhs]
            except KeyError as missing:
                raise _unreadable(missing.args[0]) from None
            registers[instruction] = apply(lhs, rhs) & mask
            frame.index += 1

        return op

    def op(vm, thread, frame, instruction=instruction, lhs=lhs,
           lhs_reg=lhs_reg, rhs=rhs, rhs_reg=rhs_reg, name=name, bits=bits):
        registers = frame.registers
        try:
            if lhs_reg:
                lhs = registers[lhs]
            if rhs_reg:
                rhs = registers[rhs]
        except KeyError as missing:
            raise _unreadable(missing.args[0]) from None
        if rhs == 0 and name in ("sdiv", "srem", "udiv", "urem"):
            vm.raise_fault(FaultEvent(
                FaultKind.DIVISION_BY_ZERO, thread.thread_id,
                "division by zero at %s" % instruction.location,
                call_stack=thread.call_stack(), step=vm.step,
            ))
        if name == "udiv":
            result = lhs // rhs
        elif name == "urem":
            result = lhs % rhs
        elif name == "shl":
            result = lhs << (rhs % bits)
        elif name == "lshr":
            result = lhs >> (rhs % bits)
        else:
            signed_lhs = lhs - (1 << bits) if lhs >> (bits - 1) else lhs
            signed_rhs = rhs - (1 << bits) if rhs >> (bits - 1) else rhs
            if name == "sdiv":
                result = int(signed_lhs / signed_rhs) if signed_rhs else 0
            elif name == "srem":
                result = (signed_lhs
                          - int(signed_lhs / signed_rhs) * signed_rhs)
            elif name == "ashr":
                result = signed_lhs >> (rhs % bits)
            else:
                raise RuntimeFault(FaultEvent(
                    FaultKind.WILD_ACCESS, thread.thread_id,
                    "bad binop %s" % name,
                ))
        registers[instruction] = result & ((1 << bits) - 1)
        frame.index += 1

    return op


#: ICmp predicate -> comparison; sge/uge are the reference's final else.
_COMPARE = {
    "eq": operator.eq,
    "ne": operator.ne,
    "slt": operator.lt,
    "ult": operator.lt,
    "sle": operator.le,
    "ule": operator.le,
    "sgt": operator.gt,
    "ugt": operator.gt,
}


def _compile_icmp(vm, instruction: ICmp) -> Callable:
    lhs, lhs_reg = _operand(vm, instruction.lhs)
    rhs, rhs_reg = _operand(vm, instruction.rhs)
    lhs_type = instruction.lhs.type
    bits = lhs_type.bits if isinstance(lhs_type, IntType) else 64
    predicate = instruction.predicate

    def op(vm, thread, frame, instruction=instruction, lhs=lhs,
           lhs_reg=lhs_reg, rhs=rhs, rhs_reg=rhs_reg,
           compare=_COMPARE.get(predicate, operator.ge),
           signed=predicate.startswith("s"), sign=bits - 1, wrap=1 << bits):
        registers = frame.registers
        try:
            if lhs_reg:
                lhs = registers[lhs]
            if rhs_reg:
                rhs = registers[rhs]
        except KeyError as missing:
            raise _unreadable(missing.args[0]) from None
        if signed:
            if lhs >> sign:
                lhs -= wrap
            if rhs >> sign:
                rhs -= wrap
        registers[instruction] = 1 if compare(lhs, rhs) else 0
        frame.index += 1

    return op


def _compile_gep(vm, instruction: GetElementPtr) -> Callable:
    base, base_reg = _operand(vm, instruction.base)
    if instruction.field is not None:
        def op(vm, thread, frame, instruction=instruction, base=base,
               base_reg=base_reg,
               offset=instruction.base.type.pointee.field_offset(
                   instruction.field)):
            registers = frame.registers
            if base_reg:
                try:
                    base = registers[base]
                except KeyError:
                    raise _unreadable(base) from None
            registers[instruction] = (base + offset) & MASK64
            frame.index += 1

        return op
    index, index_reg = _operand(vm, instruction.index)

    def op(vm, thread, frame, instruction=instruction, base=base,
           base_reg=base_reg, index=index, index_reg=index_reg,
           size=instruction.type.pointee.size()):
        registers = frame.registers
        try:
            if base_reg:
                base = registers[base]
            if index_reg:
                index = registers[index]
        except KeyError as missing:
            raise _unreadable(missing.args[0]) from None
        if index >> 63:  # negative index (two's complement)
            index -= 1 << 64
        registers[instruction] = (base + index * size) & MASK64
        frame.index += 1

    return op


def _compile_cast(vm, instruction: Cast) -> Callable:
    value, value_reg = _operand(vm, instruction.value)
    pointee = (instruction.type.pointee
               if isinstance(instruction.type, PointerType) else None)

    def op(vm, thread, frame, instruction=instruction, value=value,
           value_reg=value_reg, mask=_mask(instruction.type),
           types_struct=isinstance(pointee, StructType)):
        if value_reg:
            try:
                value = frame.registers[value]
            except KeyError:
                raise _unreadable(value) from None
        value &= mask
        frame.registers[instruction] = value
        if types_struct:
            # Struct-pointer casts retype raw heap blocks (field layouts
            # for overflow attribution); the scalar/opaque-pointer cases
            # are compile-time no-ops in _maybe_type_block.
            vm._maybe_type_block(instruction, value)
        frame.index += 1

    return op


def _compile_br(vm, instruction: Br) -> Callable:
    if instruction.is_conditional:
        condition, condition_reg = _operand(vm, instruction.condition)

        def op(vm, thread, frame, condition=condition,
               condition_reg=condition_reg,
               true_block=instruction.true_block,
               false_block=instruction.false_block):
            if condition_reg:
                try:
                    condition = frame.registers[condition]
                except KeyError:
                    raise _unreadable(condition) from None
            frame.block = true_block if condition else false_block
            frame.index = 0

        return op

    def op(vm, thread, frame, target=instruction.true_block):
        frame.block = target
        frame.index = 0

    return op


def _compile_alloca(vm, instruction: Alloca) -> Callable:
    def op(vm, thread, frame, instruction=instruction,
           allocated_type=instruction.allocated_type,
           size=instruction.allocated_type.size()):
        block = vm.memory.allocate(
            size, MemoryBlock.STACK,
            name="%s.%s" % (frame.function.name, instruction.name or "tmp"),
            value_type=allocated_type, step=vm.step,
        )
        frame.allocas.append(block)
        frame.registers[instruction] = block.base
        frame.index += 1

    return op


#: AtomicRMW operator -> new value from (old, operand); xor is the
#: reference's final else.
_RMW = {
    "add": operator.add,
    "sub": operator.sub,
    "xchg": lambda old, operand: operand,
    "and": operator.and_,
    "or": operator.or_,
}


def _compile_atomicrmw(vm, instruction: AtomicRMW) -> Callable:
    pointer, pointer_reg = _operand(vm, instruction.pointer)
    value, value_reg = _operand(vm, instruction.value)

    def op(vm, thread, frame, instruction=instruction, pointer=pointer,
           pointer_reg=pointer_reg, value=value, value_reg=value_reg,
           size=max(1, instruction.type.size()),
           apply=_RMW.get(instruction.op, operator.xor)):
        registers = frame.registers
        try:
            if pointer_reg:
                pointer = registers[pointer]
            if value_reg:
                value = registers[value]
        except KeyError as missing:
            raise _unreadable(missing.args[0]) from None
        memory = vm.memory
        block, fault = memory.check_access(
            pointer, size, True, thread.thread_id, vm.step)
        if fault is not None:
            fault.call_stack = thread.call_stack()
            vm.raise_fault(fault)
        vm.emit_sync(thread, SyncEvent.ACQUIRE, pointer, instruction)
        old = memory.read_int(pointer, size, signed=False)
        memory.write_int(pointer, apply(old, value), size)
        vm.emit_sync(thread, SyncEvent.RELEASE, pointer, instruction)
        registers[instruction] = old
        frame.index += 1

    return op


def _call_external(vm, thread, frame, instruction: Call, name: str,
                   values: List[int], mask: int, returns: bool) -> None:
    """The body of ``VM._exec_external``: the implementation is looked up
    per call, so ``externals.overridden`` reaches ops compiled earlier."""
    observers = vm.observers
    if observers:
        event = ExternalCallEvent(
            thread.thread_id, vm.step, name, values, instruction,
            thread.call_stack(),
        )
        for observer in observers:
            observer.on_external_call(event)
    result = externals.lookup(name)(vm, thread, instruction, values)
    if thread.state is ThreadState.FINISHED:
        return
    if result is not None:
        frame.registers[instruction] = result & mask
    elif returns:
        frame.registers[instruction] = 0
    frame.index += 1


def _compile_call(vm, instruction: Call) -> Callable:
    arguments = tuple(_operand(vm, argument)
                      for argument in instruction.operands)
    mask = _mask(instruction.type)
    returns = instruction.type.size() > 0
    callee = instruction.callee
    if isinstance(callee, (Function, ExternalFunction)):
        def op(vm, thread, frame, instruction=instruction, target=callee,
               external=isinstance(callee, ExternalFunction),
               arguments=arguments, mask=mask, returns=returns):
            try:
                values = _values(frame.registers, arguments)
            except KeyError as missing:
                raise _unreadable(missing.args[0]) from None
            if external:
                _call_external(vm, thread, frame, instruction, target.name,
                               values, mask, returns)
                return
            callee_frame = Frame(target, call_site=instruction)
            callee_frame.registers.update(zip(target.arguments, values))
            thread.push_frame(callee_frame)

        return op
    address, address_reg = _operand(vm, callee)

    def op(vm, thread, frame, instruction=instruction, address=address,
           address_reg=address_reg, arguments=arguments, mask=mask,
           returns=returns):
        registers = frame.registers
        if address_reg:
            try:
                address = registers[address]
            except KeyError:
                raise _unreadable(address) from None
        target = vm.function_at(address)
        if target is None:
            kind = (FaultKind.NULL_DEREF if address == 0
                    else FaultKind.WILD_ACCESS)
            vm.raise_fault(FaultEvent(
                kind, thread.thread_id,
                "indirect call through %s function pointer (0x%x) at %s" % (
                    "NULL" if address == 0 else "dangling", address,
                    instruction.location,
                ),
                address=address, call_stack=thread.call_stack(), step=vm.step,
            ))
            registers[instruction] = 0
            frame.index += 1
            return
        try:
            values = _values(registers, arguments)
        except KeyError as missing:
            raise _unreadable(missing.args[0]) from None
        if isinstance(target, ExternalFunction):
            _call_external(vm, thread, frame, instruction, target.name,
                           values, mask, returns)
            return
        callee_frame = Frame(target, call_site=instruction)
        callee_frame.registers.update(zip(target.arguments, values))
        thread.push_frame(callee_frame)

    return op


def _compile_ret(vm, instruction: Ret) -> Callable:
    if instruction.value is None:
        value, value_reg = None, False
    else:
        value, value_reg = _operand(vm, instruction.value)

    def op(vm, thread, frame, value=value, value_reg=value_reg):
        if value_reg:
            try:
                value = frame.registers[value]
            except KeyError:
                raise _unreadable(value) from None
        step = vm.step
        for block in frame.allocas:
            block.freed = True
            block.free_step = step
        thread.pop_frame()
        if not thread.frames:
            vm.finish_thread(thread, value)
            return
        call_site = frame.call_site
        if call_site is not None:
            caller = thread.frames[-1]
            if value is not None:
                caller.registers[call_site] = value & _mask(call_site.type)
            elif call_site.type.size() > 0:
                caller.registers[call_site] = 0
            caller.index += 1

    return op


def _compile_unsupported(vm, instruction: Instruction) -> Callable:
    def op(vm, thread, frame, instruction=instruction):
        raise RuntimeFault(FaultEvent(
            FaultKind.WILD_ACCESS, thread.thread_id,
            "unsupported instruction %s" % instruction.describe(),
        ))

    return op


#: Each instruction class's op compiler, in the isinstance order of the
#: reference path (``VM._execute_reference``).
_COMPILERS = (
    (Alloca, _compile_alloca),
    (Load, _compile_load),
    (Store, _compile_store),
    (BinOp, _compile_binop),
    (ICmp, _compile_icmp),
    (GetElementPtr, _compile_gep),
    (Cast, _compile_cast),
    (AtomicRMW, _compile_atomicrmw),
    (Br, _compile_br),
    (Call, _compile_call),
    (Ret, _compile_ret),
)

#: Instruction classes whose ops may run inside a fused run.  Branches
#: fuse too — an unconditional Br lets the trace continue into the
#: successor block, a conditional Br ends it (the successor depends on a
#: runtime value) and closes a loop trace when it can return to the
#: plan's start.  Call can block/spawn/exit; Ret can finish the thread
#: (changing the runnable set mid-run); AtomicRMW emits SyncEvents that
#: anchor happens-before edges and keeps its own step.
FUSIBLE = (Alloca, Load, Store, BinOp, ICmp, GetElementPtr, Cast, Br)

#: Instruction classes a loop trace may hold and still be skipped at a
#: fixed point: none writes memory, allocates or retypes a block, so an
#: iteration's effects are its register writes and its (non-atomic) loads.
READ_ONLY = (Load, BinOp, ICmp, GetElementPtr, Br)


def _compiler_for(instruction: Instruction) -> Callable:
    for base, compiler in _COMPILERS:
        if isinstance(instruction, base):
            return compiler
    return _compile_unsupported


class FuseEngine:
    """One module's op cache, plan cache, hotness tracker and counters.

    Built by :func:`fuse_engine`, never directly by a VM.  Ops and plans
    compiled during seed 0 are reused by seed 19 and by every verifier or
    gate VM of the module, so the compile cost amortizes across the whole
    run.  Ops read all dynamic state through the executing VM, which every
    call passes in; the only per-VM values they bake in are global and
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
        #: instruction -> its op, compiled on first execution; VMs read
        #: it directly on every step, and every plan running through the
        #: instruction shares the op
        self.ops: Dict[Instruction, Callable] = {}
        #: (block, offset) -> FusePlan, or None once the site is known to
        #: be unfusible (so the per-decision probe stays one dict lookup).
        self._plans: Dict[tuple, Optional[FusePlan]] = {}
        self._heat: Dict[tuple, int] = {}
        self.compiled = 0
        self.fused_runs = 0
        self.fused_steps = 0
        #: fused steps a loop at a fixed point skipped (part of fused_steps)
        self.skipped_steps = 0
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
            # compiled op is wrong for it.  Drop the ops and plans and
            # re-sign rather than execute against stale addresses.
            self.invalidate()
            self._signature = (dict(signature[0]), dict(signature[1]))
        return self

    def op(self, vm, instruction: Instruction) -> Callable:
        """The instruction's op, compiled on first use."""
        op = self.ops.get(instruction)
        if op is None:
            op = self.ops[instruction] = _compiler_for(instruction)(
                vm, instruction)
        return op

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

    def _compile(self, vm, block, start: int) -> Optional[FusePlan]:
        """Compile the trace starting at ``(block, start)``.

        The trace is the longest run of fusible instructions from there:
        straight-line within a block, and continuing into the successor
        block across *unconditional* branches (the path is static).  A
        conditional branch fuses as the trace's final op — its successor
        depends on a runtime value, so the next plan takes over there.
        Revisiting a block ends the trace.  When the trace starts at a
        block entry and its final branch can jump back to that entry (a
        loop back-edge, conditional or not), the plan is a *loop trace*:
        the VM keeps cycling its ops while the branch returns to the start
        and stops at the first iteration that leaves.  A back-edge to any
        other block re-enters that block's own plan instead of unrolling.
        """
        ops: List[Callable] = []
        traced: List[Instruction] = []
        first = block
        index = start
        visited = {block}
        loop = None
        while len(ops) < MAX_TRACE:
            instructions = block.instructions
            if index >= len(instructions):
                break
            instruction = instructions[index]
            if not isinstance(instruction, FUSIBLE):
                break
            ops.append(self.op(vm, instruction))
            traced.append(instruction)
            if isinstance(instruction, Br):
                if instruction.is_conditional:
                    targets = (instruction.true_block,
                               instruction.false_block)
                elif instruction.true_block in visited:
                    targets = (instruction.true_block,)
                else:
                    block = instruction.true_block
                    visited.add(block)
                    index = 0
                    continue
                if start == 0 and first in targets:
                    loop = first
                break
            index += 1
        if len(ops) < MIN_RUN:
            return None
        self.compiled += 1
        writes = None
        if loop is not None and all(
                isinstance(instruction, READ_ONLY)
                and not (isinstance(instruction, Load) and instruction.atomic)
                for instruction in traced):
            writes = tuple(instruction for instruction in traced
                           if not isinstance(instruction, Br))
        return FusePlan(tuple(ops), start, loop, writes)

    def invalidate(self) -> None:
        """Drop every op, plan and heat counter (address layout change)."""
        self.ops.clear()
        self._plans.clear()
        self._heat.clear()
        self.invalidations += 1

    def counters(self) -> Dict[str, int]:
        return {
            "compiled": self.compiled,
            "fused_runs": self.fused_runs,
            "fused_steps": self.fused_steps,
            "skipped_steps": self.skipped_steps,
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
