"""The five vulnerable site types (paper section 3.2).

"Although the consequences of concurrency attacks are miscellaneous, these
consequences are triggered by five explicit types of vulnerable sites,
including memory operations (e.g., strcpy()), NULL pointer dereferences,
privilege operations (e.g., setuid()), file operations (e.g., access()), and
process-forking operations (e.g., eval() in shell scripts).  [...] more
types can be easily added."

The registry maps external function names to site types and classifies
arbitrary instructions; it is deliberately extensible (``add_type`` /
``add_function``) to honour the quoted extensibility claim.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.ir.function import ExternalFunction, Function
from repro.ir.instructions import Call, Instruction, Load, Store


class VulnSiteType(enum.Enum):
    """The vulnerability site taxonomy of paper section 3.2."""

    MEMORY_OP = "memory-operation"
    NULL_PTR_DEREF = "null-pointer-dereference"
    PRIVILEGE_OP = "privilege-operation"
    FILE_OP = "file-operation"
    FORK_OP = "process-forking-operation"


MEMORY_OP_FUNCTIONS = {
    "strcpy", "strncpy", "strcat", "memcpy", "memset", "sprintf", "write",
    "free",
}
PRIVILEGE_OP_FUNCTIONS = {
    "setuid", "seteuid", "setgid", "setgroups", "commit_creds",
}
FILE_OP_FUNCTIONS = {"access", "open", "chmod", "unlink"}
FORK_OP_FUNCTIONS = {"execve", "system", "eval", "fork"}


class VulnSiteRegistry:
    """Classifies instructions into vulnerable site types."""

    def __init__(self):
        self._by_function: Dict[str, VulnSiteType] = {}
        for name in MEMORY_OP_FUNCTIONS:
            self._by_function[name] = VulnSiteType.MEMORY_OP
        for name in PRIVILEGE_OP_FUNCTIONS:
            self._by_function[name] = VulnSiteType.PRIVILEGE_OP
        for name in FILE_OP_FUNCTIONS:
            self._by_function[name] = VulnSiteType.FILE_OP
        for name in FORK_OP_FUNCTIONS:
            self._by_function[name] = VulnSiteType.FORK_OP

    # ------------------------------------------------------------------
    # extensibility

    def add_function(self, name: str, site_type: VulnSiteType) -> None:
        """Register one more sensitive external ("more types can be added")."""
        self._by_function[name] = site_type

    def functions_of(self, site_type: VulnSiteType) -> Set[str]:
        return {
            name for name, stype in self._by_function.items() if stype is site_type
        }

    # ------------------------------------------------------------------
    # classification

    def call_site_type(self, instruction: Call) -> Optional[VulnSiteType]:
        """Site type of a direct/external call, by callee name."""
        callee = instruction.callee
        if isinstance(callee, (Function, ExternalFunction)):
            return self._by_function.get(callee.name)
        return None

    def site_type(
        self, instruction: Instruction, pointer_corrupted: bool = False,
    ) -> Optional[VulnSiteType]:
        """Algorithm 1's ``i.type() ∈ vuls`` test.

        ``pointer_corrupted`` says whether the instruction's pointer operand
        (load/store address, or indirect-call target) is in the corrupted
        set — which is what turns an ordinary dereference into a potential
        NULL pointer dereference site (the Linux uselib/SSDB pattern).
        """
        if isinstance(instruction, Call):
            named = self.call_site_type(instruction)
            if named is not None:
                return named
            if instruction.is_indirect and pointer_corrupted:
                return VulnSiteType.NULL_PTR_DEREF
            return None
        if isinstance(instruction, (Load, Store)) and pointer_corrupted:
            return VulnSiteType.NULL_PTR_DEREF
        return None

    def pointer_operand(self, instruction: Instruction):
        """The operand whose corruption makes this instruction a deref site."""
        if isinstance(instruction, Load):
            return instruction.pointer
        if isinstance(instruction, Store):
            return instruction.pointer
        if isinstance(instruction, Call) and instruction.is_indirect:
            return instruction.callee
        return None


#: The registry used across OWL unless a caller supplies its own.
DEFAULT_REGISTRY = VulnSiteRegistry()
