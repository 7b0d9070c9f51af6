"""The :class:`Module`: a whole program (functions + globals + structs)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.ir.function import ExternalFunction, Function
from repro.ir.instructions import Instruction
from repro.ir.types import FunctionType, StructType
from repro.ir.values import GlobalVariable


class Module:
    """A complete program: functions, external declarations and globals.

    Stands in for the "LLVM bitcode" the paper's analyses consume.  Every
    instruction added to a function registered here receives a module-unique
    ``uid`` so reports can reference instructions the way paper Figure 5
    references ``%632``.
    """

    def __init__(self, name: str):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.externals: Dict[str, ExternalFunction] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.structs: Dict[str, StructType] = {}
        self._next_uid = 1
        self._instructions_by_uid: Dict[int, Instruction] = {}
        #: instructions registered or unregistered so far (see version())
        self._edits = 0
        #: memo of :func:`repro.ir.reach.reach_analysis`
        self.reach_analysis = None
        #: memo of :func:`repro.runtime.fuse.fuse_engine`
        self.fuse_engine = None

    # ------------------------------------------------------------------
    # registration

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions or function.name in self.externals:
            raise ValueError("duplicate function %r in module %s" % (function.name, self.name))
        function.module = self
        self.functions[function.name] = function
        for instruction in function.instructions():
            self.register_instruction(instruction)
        return function

    def declare_external(self, name: str, ftype: FunctionType) -> ExternalFunction:
        if name in self.functions:
            raise ValueError("%r already defined as internal function" % name)
        if name in self.externals:
            existing = self.externals[name]
            if existing.ftype != ftype:
                raise ValueError("conflicting redeclaration of external %r" % name)
            return existing
        external = ExternalFunction(name, ftype)
        external.module = self
        self.externals[name] = external
        return external

    def add_global(self, variable: GlobalVariable) -> GlobalVariable:
        if variable.name in self.globals:
            raise ValueError("duplicate global %r in module %s" % (variable.name, self.name))
        variable.module = self
        self.globals[variable.name] = variable
        return variable

    def add_struct(self, struct: StructType) -> StructType:
        if struct.name in self.structs:
            raise ValueError("duplicate struct %r in module %s" % (struct.name, self.name))
        self.structs[struct.name] = struct
        return struct

    def register_instruction(self, instruction: Instruction) -> None:
        self._edits += 1
        if instruction.uid is not None:
            # Adopt a pre-assigned uid (module cloning relies on this: a
            # clone's instructions must keep the original uids so race-report
            # static keys stay valid across the copy).
            self._instructions_by_uid[instruction.uid] = instruction
            self._next_uid = max(self._next_uid, instruction.uid + 1)
            return
        instruction.uid = self._next_uid
        self._next_uid += 1
        self._instructions_by_uid[instruction.uid] = instruction

    def unregister_instruction(self, instruction: Instruction) -> None:
        """Forget an instruction removed from its block (patch revert)."""
        self._instructions_by_uid.pop(instruction.uid, None)
        self._edits += 1

    # ------------------------------------------------------------------
    # lookup

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError("module %s has no function %r" % (self.name, name)) from None

    def get_callable(self, name: str) -> Union[Function, ExternalFunction]:
        if name in self.functions:
            return self.functions[name]
        if name in self.externals:
            return self.externals[name]
        raise KeyError("module %s has no callable %r" % (self.name, name))

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError("module %s has no global %r" % (self.name, name)) from None

    def instruction_by_uid(self, uid: int) -> Instruction:
        return self._instructions_by_uid[uid]

    def instructions(self) -> Iterator[Instruction]:
        for function in self.functions.values():
            for instruction in function.instructions():
                yield instruction

    def find_instructions(
        self, filename: Optional[str] = None, line: Optional[int] = None,
        opcode: Optional[str] = None,
    ) -> List[Instruction]:
        """Locate instructions by source position and/or opcode."""
        result = []
        for instruction in self.instructions():
            loc = instruction.location
            if filename is not None and loc.filename != filename:
                continue
            if line is not None and loc.line != line:
                continue
            if opcode is not None and instruction.opcode != opcode:
                continue
            result.append(instruction)
        return result

    def instruction_count(self) -> int:
        return len(self._instructions_by_uid)

    def version(self) -> int:
        """Changes whenever an instruction is added to or removed from the
        module (module patches do both), so the memos built from it
        (reach analysis, fuse engine) know to rebuild.  It never repeats:
        reverting a patch and applying another of the same size yields a
        new version."""
        return self._edits

    def __repr__(self) -> str:
        return "<Module %s: %d functions, %d globals>" % (
            self.name, len(self.functions), len(self.globals),
        )
