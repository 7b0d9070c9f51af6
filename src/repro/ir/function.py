"""Functions, external declarations and basic blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.ir.instructions import Instruction
from repro.ir.types import FunctionType, PointerType, Type
from repro.ir.values import Argument, Value


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, function: "Function"):
        self.name = name
        self.function = function
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None or not term.is_branch():
            return []
        return term.successors()

    def append(self, instruction: Instruction) -> Instruction:
        if self.terminator is not None:
            raise ValueError(
                "cannot append %s after terminator in block %s"
                % (instruction.opcode, self.name)
            )
        instruction.block = self
        self.instructions.append(instruction)
        module = self.function.module
        if module is not None:
            module.register_instruction(instruction)
        return instruction

    def index_of(self, instruction: Instruction) -> int:
        return self.instructions.index(instruction)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return "<BasicBlock %s.%s (%d instrs)>" % (
            self.function.name, self.name, len(self.instructions),
        )


class Function(Value):
    """A function with a body ("internal" in Algorithm 1's terms)."""

    def __init__(
        self,
        name: str,
        ftype: FunctionType,
        param_names: Optional[Sequence[str]] = None,
        source_file: str = "<unknown>",
    ):
        super().__init__(PointerType(ftype), name=name)
        self.ftype = ftype
        self.module = None
        self.source_file = source_file
        self.blocks: List[BasicBlock] = []
        #: memo of :func:`repro.ir.cfg.cfg_for`
        self.cfg_info = None
        names = list(param_names) if param_names else [
            "arg%d" % i for i in range(len(ftype.param_types))
        ]
        if len(names) != len(ftype.param_types):
            raise ValueError("parameter name count mismatch for %s" % name)
        self.arguments: List[Argument] = []
        for index, (pname, ptype) in enumerate(zip(names, ftype.param_types)):
            argument = Argument(ptype, pname, index)
            argument.function = self
            self.arguments.append(argument)

    def return_type(self) -> Type:
        return self.ftype.return_type

    def is_internal(self) -> bool:
        """Whether the function has a body OWL's analyses can descend into."""
        return bool(self.blocks)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError("function %s has no blocks" % self.name)
        return self.blocks[0]

    def add_block(self, name: str) -> BasicBlock:
        if any(block.name == name for block in self.blocks):
            raise ValueError("duplicate block name %r in %s" % (name, self.name))
        block = BasicBlock(name, self)
        self.blocks.append(block)
        return block

    def get_block(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError("function %s has no block %r" % (self.name, name))

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            for instruction in block.instructions:
                yield instruction

    def first_instruction(self) -> Instruction:
        return self.entry.instructions[0]

    def short_name(self) -> str:
        return "@%s" % self.name

    def __repr__(self) -> str:
        return "<Function %s %s>" % (self.name, self.ftype)


class ExternalFunction(Value):
    """A declared-only function implemented by the runtime (libc, syscalls).

    External functions are where OWL's five vulnerable-site types live
    (``strcpy``, ``setuid``, ``access``, ``exec``...); the runtime gives each
    a concrete semantics in :mod:`repro.runtime.externals`.
    """

    def __init__(self, name: str, ftype: FunctionType):
        super().__init__(PointerType(ftype), name=name)
        self.ftype = ftype
        self.module = None

    def return_type(self) -> Type:
        return self.ftype.return_type

    def is_internal(self) -> bool:
        return False

    def short_name(self) -> str:
        return "@%s" % self.name

    def __repr__(self) -> str:
        return "<ExternalFunction %s %s>" % (self.name, self.ftype)


CallStackEntry = Tuple[str, str, int]
