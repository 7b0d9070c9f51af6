"""Byte-addressable shared memory with object-lifetime tracking.

Memory is organised as disjoint blocks separated by guard gaps.  Each block
knows its kind (global / heap / stack / string / code), its optional struct
field layout, and whether it has been freed.  This supports the runtime fault
model the reproduced attacks need:

- reads/writes to freed heap blocks are use-after-free (SSDB, Figure 6),
- writes crossing a struct field boundary are *field overflows* — memory
  corruption of an adjacent field, which is exactly the Apache bug-25520
  exploit (one log byte overwriting the neighbouring file-descriptor field,
  Figure 7) — recorded but allowed to proceed so the attack can be realized,
- accesses past a block's end or into a guard gap are buffer overflows /
  wild accesses.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.ir.types import ArrayType, IntType, PointerType, StructType, Type
from repro.runtime.errors import FaultEvent, FaultKind, RuntimeFault

GUARD_GAP = 64
BASE_ADDRESS = 0x10000
CODE_BASE = 0x1000


class MemoryBlock:
    """One contiguous allocation."""

    GLOBAL = "global"
    HEAP = "heap"
    STACK = "stack"
    CODE = "code"

    def __init__(self, base: int, size: int, kind: str, name: str = "",
                 value_type: Optional[Type] = None):
        self.base = base
        self.size = size
        self.kind = kind
        self.name = name
        self.value_type = value_type
        self.data = bytearray(size)
        self.freed = False
        self.alloc_step = 0
        self.free_step: Optional[int] = None
        # (field_name, offset, size) when value_type is a struct.
        self.fields: List[Tuple[str, int, int]] = []
        if isinstance(value_type, StructType):
            self.fields = value_type.layout()
        # offset -> description memo; must be cleared whenever the block's
        # field layout changes (see invalidate_descriptions).
        self._describe_memo: Dict[int, str] = {}

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def field_at(self, offset: int) -> Optional[Tuple[str, int, int]]:
        for name, field_offset, field_size in self.fields:
            if field_offset <= offset < field_offset + field_size:
                return (name, field_offset, field_size)
        return None

    def describe_offset(self, offset: int) -> str:
        """Human-readable name for an address inside the block."""
        field = self.field_at(offset)
        if field is not None:
            suffix = "" if offset == field[1] else "+%d" % (offset - field[1])
            return "%s.%s%s" % (self.name or hex(self.base), field[0], suffix)
        if offset == 0:
            return self.name or hex(self.base)
        return "%s+%d" % (self.name or hex(self.base), offset)

    def describe_offset_cached(self, offset: int) -> str:
        """Memoized :meth:`describe_offset` — the per-access hot path.

        The linear field scan plus string formatting runs once per distinct
        (block, offset); repeated accesses to the same location (the common
        case for racy variables) hit the memo.
        """
        memo = self._describe_memo
        text = memo.get(offset)
        if text is None:
            text = self.describe_offset(offset)
            memo[offset] = text
        return text

    def invalidate_descriptions(self) -> None:
        """Drop memoized descriptions after the field layout changed."""
        self._describe_memo.clear()

    def copy(self) -> "MemoryBlock":
        """A copy with its own bytes, flags and description memo (the
        field layout is only ever replaced, never edited, so it is shared)."""
        block = MemoryBlock.__new__(MemoryBlock)
        block.__dict__.update(self.__dict__)
        block.data = bytearray(self.data)
        block._describe_memo = dict(self._describe_memo)
        return block

    def __repr__(self) -> str:
        state = " freed" if self.freed else ""
        return "<MemoryBlock %s %s base=0x%x size=%d%s>" % (
            self.kind, self.name or "?", self.base, self.size, state,
        )


class Memory:
    """The process address space.

    ``memoize=False`` disables the repeated-address ``block_at`` cache and
    the per-(block, offset) description memo — the reference configuration
    of the differential oracle (:mod:`repro.runtime.diffcheck`).
    """

    def __init__(self, memoize: bool = True):
        self._blocks: Dict[int, MemoryBlock] = {}
        self._bases: List[int] = []
        self._next_address = BASE_ADDRESS
        self._memoize = memoize
        # Consecutive accesses overwhelmingly hit the same block; checking
        # the previous hit first skips the bisect.  Blocks are never moved
        # or removed (freed blocks stay mapped), so a cached hit can never
        # go stale.
        self._last_block: Optional[MemoryBlock] = None
        #: faults recorded when fault-tolerant access is requested
        self.recorded_faults: List[FaultEvent] = []

    def copy(self) -> "Memory":
        """A copy of the address space: every block copied, at its address."""
        memory = Memory.__new__(Memory)
        memory.__dict__.update(self.__dict__)
        memory._blocks = {base: block.copy()
                          for base, block in self._blocks.items()}
        memory._bases = list(self._bases)
        memory._last_block = None
        memory.recorded_faults = list(self.recorded_faults)
        return memory

    # ------------------------------------------------------------------
    # allocation

    def allocate(self, size: int, kind: str, name: str = "",
                 value_type: Optional[Type] = None, step: int = 0) -> MemoryBlock:
        size = max(1, size)
        block = MemoryBlock(self._next_address, size, kind, name=name,
                            value_type=value_type)
        block.alloc_step = step
        self._next_address += size + GUARD_GAP
        self._blocks[block.base] = block
        bisect.insort(self._bases, block.base)
        return block

    def free(self, address: int, thread_id: int, step: int,
             call_stack=()) -> Optional[FaultEvent]:
        """Free a heap block; returns a fault event for invalid/double frees."""
        block = self._blocks.get(address)
        if block is None or block.kind != MemoryBlock.HEAP or address != block.base:
            return FaultEvent(
                FaultKind.INVALID_FREE, thread_id,
                "free of non-heap address 0x%x" % address,
                address=address, call_stack=call_stack, step=step,
            )
        if block.freed:
            return FaultEvent(
                FaultKind.DOUBLE_FREE, thread_id,
                "double free of %s (0x%x)" % (block.name or "block", address),
                address=address, call_stack=call_stack, step=step,
            )
        block.freed = True
        block.free_step = step
        return None

    # ------------------------------------------------------------------
    # lookup

    def block_at(self, address: int) -> Optional[MemoryBlock]:
        """The block containing ``address``, freed blocks included."""
        last = self._last_block
        if last is not None and last.contains(address):
            return last
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        block = self._blocks[self._bases[index]]
        if not block.contains(address):
            return None
        if self._memoize:
            self._last_block = block
        return block

    def describe(self, address: int) -> str:
        block = self.block_at(address)
        if block is None:
            return hex(address)
        offset = address - block.base
        if self._memoize:
            return block.describe_offset_cached(offset)
        return block.describe_offset(offset)

    def blocks(self) -> List[MemoryBlock]:
        return [self._blocks[base] for base in self._bases]

    # ------------------------------------------------------------------
    # access

    def check_access(
        self,
        address: int,
        size: int,
        is_write: bool,
        thread_id: int,
        step: int,
        call_stack=(),
    ) -> Tuple[Optional[MemoryBlock], Optional[FaultEvent]]:
        """Validate an access; returns (block, fault-or-None).

        A fault with a live ``block`` (use-after-free, intra-block overflow)
        can be recorded and the access allowed to continue — that is the
        memory corruption attacks build on.  A ``None`` block means the access
        cannot proceed at all.
        """
        if address == 0:
            return None, FaultEvent(
                FaultKind.NULL_DEREF, thread_id,
                "NULL pointer dereference (%s)" % ("write" if is_write else "read"),
                address=0, call_stack=call_stack, step=step,
            )
        block = self.block_at(address)
        if block is None:
            return None, FaultEvent(
                FaultKind.WILD_ACCESS, thread_id,
                "access to unmapped address 0x%x" % address,
                address=address, call_stack=call_stack, step=step,
            )
        if block.freed:
            return block, FaultEvent(
                FaultKind.USE_AFTER_FREE, thread_id,
                "%s of freed %s" % (
                    "write" if is_write else "read", block.name or hex(block.base),
                ),
                address=address, call_stack=call_stack, step=step,
            )
        offset = address - block.base
        if offset + size > block.size:
            return block, FaultEvent(
                FaultKind.BUFFER_OVERFLOW, thread_id,
                "%d-byte %s at %s overruns block of %d bytes" % (
                    size, "write" if is_write else "read",
                    block.describe_offset(offset), block.size,
                ),
                address=address, call_stack=call_stack, step=step,
            )
        return block, None

    def read_bytes(self, address: int, size: int) -> bytes:
        """Raw read; caller must have validated the access.

        A read crossing the block end returns exactly ``size`` bytes with
        the out-of-block tail zero-filled (the guard gap reads as zeros).
        Returning a silently short buffer here made ``read_int`` decode a
        value of the wrong width after a fault-tolerated intra-block
        overflow access; zero-padding keeps the decoded value well-defined.
        """
        block = self.block_at(address)
        if block is None:
            raise RuntimeFault(FaultEvent(
                FaultKind.WILD_ACCESS, -1, "raw read at 0x%x" % address, address,
            ))
        offset = address - block.base
        end = offset + size
        if end <= block.size:
            return bytes(block.data[offset:end])
        return bytes(block.data[offset:block.size]) + b"\x00" * (end - block.size)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Raw write; caller must have validated the access.

        A write crossing the block end stores the in-block prefix and
        records a :data:`FaultKind.BUFFER_OVERFLOW` event in
        :attr:`recorded_faults` — consistent with the ``check_access``
        fault model — instead of silently dropping the tail bytes.
        """
        block = self.block_at(address)
        if block is None:
            raise RuntimeFault(FaultEvent(
                FaultKind.WILD_ACCESS, -1, "raw write at 0x%x" % address, address,
            ))
        offset = address - block.base
        end = offset + len(data)
        if end <= block.size:
            block.data[offset:end] = data
            return
        writable = block.size - offset
        self.recorded_faults.append(FaultEvent(
            FaultKind.BUFFER_OVERFLOW, -1,
            "raw write of %d bytes at %s truncated to %d (block of %d bytes)" % (
                len(data), block.describe_offset(offset), writable, block.size,
            ),
            address=address,
        ))
        block.data[offset:block.size] = data[:writable]

    # ------------------------------------------------------------------
    # typed scalar access

    def read_int(self, address: int, size: int, signed: bool = True) -> int:
        raw = self.read_bytes(address, size)
        return int.from_bytes(raw, "little", signed=signed)

    def write_int(self, address: int, value: int, size: int) -> None:
        mask = (1 << (size * 8)) - 1
        self.write_bytes(address, (value & mask).to_bytes(size, "little"))

    def read_c_string(self, address: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string, stopping at the block end."""
        block = self.block_at(address)
        if block is None:
            raise RuntimeFault(FaultEvent(
                FaultKind.WILD_ACCESS, -1, "string read at 0x%x" % address, address,
            ))
        offset = address - block.base
        out = bytearray()
        while offset < block.size and len(out) < limit:
            byte = block.data[offset]
            if byte == 0:
                break
            out.append(byte)
            offset += 1
        return bytes(out)


def store_initializer(memory: Memory, block: MemoryBlock, type_: Type, value,
                      offset: int = 0) -> None:
    """Write a global initializer (int, bytes, or nested list) into a block."""
    if value is None:
        return
    if isinstance(value, bytes):
        block.data[offset:offset + len(value)] = value
        return
    if isinstance(type_, IntType) and isinstance(value, int):
        size = type_.size()
        mask = (1 << (size * 8)) - 1
        block.data[offset:offset + size] = (value & mask).to_bytes(size, "little")
        return
    if isinstance(type_, PointerType) and isinstance(value, int):
        block.data[offset:offset + 8] = (value & ((1 << 64) - 1)).to_bytes(8, "little")
        return
    if isinstance(type_, ArrayType) and isinstance(value, (list, tuple)):
        for index, element in enumerate(value):
            store_initializer(
                memory, block, type_.element, element,
                offset + index * type_.element.size(),
            )
        return
    if isinstance(type_, StructType) and isinstance(value, (list, tuple)):
        for (name, field_type), element in zip(type_.fields, value):
            store_initializer(
                memory, block, field_type, element, offset + type_.field_offset(name),
            )
        return
    raise TypeError("cannot initialize %s with %r" % (type_, value))
