"""Module cloning and undo-logged patch application.

The repair engine (:mod:`repro.owl.repair`) synthesizes candidate fixes as
IR edits.  A candidate must never touch the module under analysis — gate
runs compare patched vs unpatched behaviour, and other pipeline stages may
still hold references to the original instructions — so every candidate is
applied to a *clone*:

- :func:`clone_module` deep-copies a module while **preserving instruction
  uids**, so race-report static keys (uid pairs) recorded against the
  original remain valid addresses into the clone.  The clone prints
  identically (:func:`repro.ir.printer.print_module`) and therefore hashes
  identically (:func:`repro.owl.cache.module_digest`).
- :class:`ModulePatcher` applies edits (instruction insertion, new globals,
  new external declarations, atomic-flag flips) with an undo journal;
  :meth:`ModulePatcher.revert` restores the clone bit-for-bit — printed
  output and digest equal to the pre-patch state.

Inserted instructions receive fresh uids past the original range, so a
patch never perturbs existing static keys; it *does* change the printed
module and hence the digest, which is what keeps patched modules distinct
cache keys (a stale detector hit on a patched module would make the repair
gates lie).
"""

from __future__ import annotations

import difflib
from typing import List, Optional, Tuple

from repro.ir.function import BasicBlock, ExternalFunction, Function
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
from repro.ir.printer import print_module
from repro.ir.stdlib import STDLIB_PROTOTYPES
from repro.ir.values import GlobalVariable, Value


# ---------------------------------------------------------------------------
# cloning


def _clone_instruction(old: Instruction, env, block_map) -> Instruction:
    def m(value):
        if value is None:
            return None
        return env.get(value, value)  # constants / null stay shared

    if isinstance(old, Alloca):
        return Alloca(old.allocated_type, name=old.name)
    if isinstance(old, Load):
        return Load(m(old.pointer), name=old.name, atomic=old.atomic)
    if isinstance(old, Store):
        return Store(m(old.value), m(old.pointer), atomic=old.atomic)
    if isinstance(old, BinOp):
        return BinOp(old.op, m(old.operands[0]), m(old.operands[1]),
                     name=old.name)
    if isinstance(old, ICmp):
        return ICmp(old.predicate, m(old.operands[0]), m(old.operands[1]),
                    name=old.name)
    if isinstance(old, Br):
        return Br(
            m(old.condition),
            block_map[old.true_block],
            block_map[old.false_block] if old.false_block is not None else None,
        )
    if isinstance(old, Call):
        return Call(m(old.callee), [m(arg) for arg in old.operands],
                    name=old.name)
    if isinstance(old, Ret):
        return Ret(m(old.value))
    if isinstance(old, GetElementPtr):
        if old.field is not None:
            return GetElementPtr(m(old.base), field=old.field, name=old.name)
        return GetElementPtr(m(old.base), index=m(old.index), name=old.name)
    if isinstance(old, Cast):
        return Cast(old.kind, m(old.value), old.type, name=old.name)
    if isinstance(old, AtomicRMW):
        return AtomicRMW(old.op, m(old.pointer), m(old.value), name=old.name)
    raise TypeError("cannot clone instruction %r" % (old,))


def clone_module(module: Module) -> Module:
    """Deep-copy ``module``, preserving instruction uids.

    Structs and constants are shared (immutable); globals, externals,
    functions, blocks and instructions are fresh objects wired to the
    clone, so in-place edits on the clone never leak back.  The verifier's
    cross-module call check holds on the clone because every callee is
    remapped to the clone's own :class:`Function`/:class:`ExternalFunction`.
    ``print_module(clone) == print_module(module)`` by construction.
    """
    clone = Module(module.name)
    clone.structs.update(module.structs)

    env = {}
    for variable in module.globals.values():
        copied = GlobalVariable(variable.name, variable.value_type,
                                variable.initializer)
        clone.add_global(copied)
        env[variable] = copied
    for external in module.externals.values():
        env[external] = clone.declare_external(external.name, external.ftype)
    block_map = {}
    for function in module.functions.values():
        copied = Function(
            function.name,
            function.ftype,
            param_names=[arg.name for arg in function.arguments],
            source_file=function.source_file,
        )
        clone.add_function(copied)
        env[function] = copied
        for old_arg, new_arg in zip(function.arguments, copied.arguments):
            env[old_arg] = new_arg
        for block in function.blocks:
            block_map[block] = copied.add_block(block.name)

    for function in module.functions.values():
        ordered = [
            instruction
            for block in function.blocks
            for instruction in block.instructions
        ]
        # uid order == construction order, and every operand predates its
        # user — so cloning in uid order guarantees operands are mapped
        # before they are needed, independent of block layout.
        ordered.sort(key=lambda instruction: instruction.uid)
        for old in ordered:
            copied = _clone_instruction(old, env, block_map)
            copied.uid = old.uid
            copied.location = old.location
            target = block_map[old.block]
            target.instructions.append(copied)
            copied.block = target
            clone.register_instruction(copied)
            env[old] = copied

    clone._next_uid = module._next_uid
    return clone


# ---------------------------------------------------------------------------
# patch application


class ModulePatcher:
    """Apply IR edits to a module with a journal that can undo them all.

    Supported edits: insert an instruction before/after an anchor, add a
    global, declare a stdlib external, flip an access's atomic flag.
    ``revert()`` restores the module so that its printed form — and hence
    :func:`repro.owl.cache.module_digest` — equals the pre-patch state.
    """

    def __init__(self, module: Module):
        self.module = module
        self._journal: List[Tuple] = []
        #: human-readable edit descriptions, in application order (evidence)
        self.ops: List[str] = []
        self._saved_next_uid = module._next_uid

    # -- edits ---------------------------------------------------------

    def add_global(self, name: str, value_type, initializer=None
                   ) -> GlobalVariable:
        variable = GlobalVariable(name, value_type, initializer)
        self.module.add_global(variable)
        self._journal.append(("global", name))
        self.ops.append("add global @%s : %s" % (name, value_type))
        return variable

    def ensure_external(self, name: str) -> ExternalFunction:
        if name in self.module.externals:
            return self.module.externals[name]
        external = self.module.declare_external(name, STDLIB_PROTOTYPES[name])
        self._journal.append(("external", name))
        self.ops.append("declare @%s" % name)
        return external

    def insert_before(self, anchor: Instruction, instruction: Instruction
                      ) -> Instruction:
        block = anchor.block
        return self._insert(block, block.index_of(anchor), instruction)

    def insert_after(self, anchor: Instruction, instruction: Instruction
                     ) -> Instruction:
        block = anchor.block
        return self._insert(block, block.index_of(anchor) + 1, instruction)

    def set_atomic(self, instruction: Instruction, atomic: bool = True
                   ) -> None:
        previous = instruction.atomic
        instruction.atomic = atomic
        self._journal.append(("atomic", instruction, previous))
        self.ops.append("set %%%d %s atomic=%s" % (
            instruction.uid, instruction.opcode, atomic))

    def _insert(self, block: BasicBlock, index: int,
                instruction: Instruction) -> Instruction:
        if instruction.location.line == 0:
            # Inherit a location from a neighbour so printed IR stays
            # fully located (reports and diffs quote locations).
            neighbour = block.instructions[min(index, len(block.instructions) - 1)]
            instruction.location = neighbour.location
        instruction.block = block
        block.instructions.insert(index, instruction)
        self.module.register_instruction(instruction)
        self._journal.append(("insert", block, instruction))
        self.ops.append("insert %%%d: %s in %s.%s" % (
            instruction.uid, instruction.describe(),
            block.function.name, block.name))
        return instruction

    # -- undo ----------------------------------------------------------

    def revert(self) -> None:
        for entry in reversed(self._journal):
            kind = entry[0]
            if kind == "insert":
                _, block, instruction = entry
                block.instructions.remove(instruction)
                self.module.unregister_instruction(instruction)
                instruction.block = None
            elif kind == "global":
                del self.module.globals[entry[1]]
            elif kind == "external":
                del self.module.externals[entry[1]]
            elif kind == "atomic":
                _, instruction, previous = entry
                instruction.atomic = previous
        self._journal.clear()
        self.ops.clear()
        self.module._next_uid = self._saved_next_uid


def ir_diff(original: Module, patched: Module,
            context: int = 2) -> List[str]:
    """Unified diff of the two modules' printed IR (evidence artifact)."""
    return list(difflib.unified_diff(
        print_module(original).splitlines(),
        print_module(patched).splitlines(),
        fromfile="a/%s" % original.name,
        tofile="b/%s" % patched.name,
        n=context,
        lineterm="",
    ))
