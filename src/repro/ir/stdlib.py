"""Prototypes of the external functions the runtime implements.

These declarations play the role of libc / syscall / pthread prototypes.  The
runtime package gives each a concrete semantics
(:mod:`repro.runtime.externals`); the OWL vulnerable-site registry
(:mod:`repro.owl.vuln_sites`) classifies the security-sensitive ones into the
paper's five vulnerable-site types (section 3.2).
"""

from __future__ import annotations

from typing import Dict

from repro.ir.types import FunctionType, IntType, PointerType, Type, I8, I32, I64, U64, VOID

_PTR = PointerType(I8)
_FPTR = PointerType(FunctionType(VOID, [_PTR]))


def _ft(ret: Type, *params: Type, varargs: bool = False) -> FunctionType:
    return FunctionType(ret, list(params), varargs=varargs)


#: name -> FunctionType for every external the runtime implements.
STDLIB_PROTOTYPES: Dict[str, FunctionType] = {
    # --- memory management -------------------------------------------------
    "malloc": _ft(_PTR, I64),
    "free": _ft(VOID, _PTR),
    "realloc": _ft(_PTR, _PTR, I64),
    # --- memory operations (vulnerable site type: MEMORY_OP) ---------------
    "strcpy": _ft(_PTR, _PTR, _PTR),
    "strncpy": _ft(_PTR, _PTR, _PTR, I64),
    "strcat": _ft(_PTR, _PTR, _PTR),
    "memcpy": _ft(_PTR, _PTR, _PTR, I64),
    "memset": _ft(_PTR, _PTR, I32, I64),
    "sprintf": _ft(I32, _PTR, _PTR, varargs=True),
    "strlen": _ft(I64, _PTR),
    "strcmp": _ft(I32, _PTR, _PTR),
    # --- privilege operations (PRIVILEGE_OP) --------------------------------
    "setuid": _ft(I32, I32),
    "seteuid": _ft(I32, I32),
    "setgid": _ft(I32, I32),
    "setgroups": _ft(I32, I32, _PTR),
    "commit_creds": _ft(I32, _PTR),
    # --- file operations (FILE_OP) ------------------------------------------
    "access": _ft(I32, _PTR, I32),
    "open": _ft(I32, _PTR, I32),
    "chmod": _ft(I32, _PTR, I32),
    "unlink": _ft(I32, _PTR),
    "write": _ft(I64, I32, _PTR, I64),
    "read": _ft(I64, I32, _PTR, I64),
    "close": _ft(I32, I32),
    # --- process forking operations (FORK_OP) --------------------------------
    "execve": _ft(I32, _PTR, _PTR, _PTR),
    "system": _ft(I32, _PTR),
    "eval": _ft(I32, _PTR),
    "fork": _ft(I32),
    # --- threads -------------------------------------------------------------
    "thread_create": _ft(I64, _FPTR, _PTR),
    "thread_join": _ft(I32, I64),
    "thread_exit": _ft(VOID),
    "thread_yield": _ft(VOID),
    # --- synchronization -----------------------------------------------------
    "mutex_init": _ft(I32, _PTR),
    "mutex_lock": _ft(I32, _PTR),
    "mutex_unlock": _ft(I32, _PTR),
    "cond_init": _ft(I32, _PTR),
    "cond_wait": _ft(I32, _PTR, _PTR),
    "cond_signal": _ft(I32, _PTR),
    "cond_broadcast": _ft(I32, _PTR),
    "atomic_add": _ft(I64, _PTR, I64),
    "atomic_sub": _ft(I64, _PTR, I64),
    # TSan-markup-style annotations, applied by OWL's adhoc-sync annotator.
    "tsan_acquire": _ft(VOID, _PTR),
    "tsan_release": _ft(VOID, _PTR),
    # --- timing / IO shaping (the "vulnerable window" knob, section 3.1) ----
    "io_delay": _ft(VOID, I64),
    "usleep": _ft(VOID, I64),
    # --- misc ----------------------------------------------------------------
    "printf": _ft(I32, _PTR, varargs=True),
    "puts": _ft(I32, _PTR),
    "exit": _ft(VOID, I32),
    "abort": _ft(VOID),
    "kill_process": _ft(VOID),
    "getpid": _ft(I32),
    "getuid": _ft(I32),
    "rand_range": _ft(I64, I64),
    "input_int": _ft(I64, I64),
    "input_str": _ft(_PTR, I64),
}
