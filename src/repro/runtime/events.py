"""Execution-trace events and the observer interface.

Detectors (TSan-like, SKI-like, lockset) attach to the VM as
:class:`TraceObserver`s and receive one event per shared-memory access, sync
operation, thread lifecycle change, allocation and external call.  This is
the reproduction's equivalent of TSan's compiler instrumentation / SKI's
hypervisor-level interception.  A loop the VM skips (a read-only loop
trace at a fixed point, :mod:`repro.runtime.fuse`) reaches observers that
accept it as one :class:`AccessRepeat` per load instead of one event per
skipped access.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.ir.instructions import Instruction

CallStack = Tuple[Tuple[str, str, int], ...]


class TraceEvent:
    """Base class for all trace events."""

    __slots__ = ("thread_id", "step")

    def __init__(self, thread_id: int, step: int):
        self.thread_id = thread_id
        self.step = step


class AccessEvent(TraceEvent):
    """A shared-memory read or write.

    ``variable`` — the human-readable description of the accessed location
    (``memory.describe``'s field scan plus formatting) — may be passed as a
    zero-argument callable; it is then resolved lazily on first attribute
    access and cached, keeping description work off the per-access hot path
    for observers that never read it.
    """

    __slots__ = (
        "instruction", "address", "size", "is_write", "value", "is_atomic",
        "call_stack", "_variable",
    )

    def __init__(
        self,
        thread_id: int,
        step: int,
        instruction: Instruction,
        address: int,
        size: int,
        is_write: bool,
        value: int,
        is_atomic: bool,
        call_stack: CallStack,
        variable=None,
    ):
        super().__init__(thread_id, step)
        self.instruction = instruction
        self.address = address
        self.size = size
        self.is_write = is_write
        self.value = value
        self.is_atomic = is_atomic
        self.call_stack = call_stack
        self._variable = variable

    @property
    def variable(self) -> Optional[str]:
        value = self._variable
        if callable(value):
            value = value()
            self._variable = value
        return value

    @variable.setter
    def variable(self, value) -> None:
        self._variable = value

    def at_step(self, step: int) -> "AccessEvent":
        """This access, as executed again at ``step``."""
        return AccessEvent(
            self.thread_id, step, self.instruction, self.address, self.size,
            self.is_write, self.value, self.is_atomic, self.call_stack,
            self._variable,
        )

    def __repr__(self) -> str:
        mode = "W" if self.is_write else "R"
        return "<%s t%d %s 0x%x size=%d val=%d at %s>" % (
            mode, self.thread_id, self.variable or "?", self.address, self.size,
            self.value, self.instruction.location,
        )


class AccessRepeat:
    """``count`` skipped executions of one load, ``period`` steps apart.

    ``last`` is the last of them; the others equal it except for their
    steps, ``last.step - period``, ``last.step - 2 * period`` and so on
    back to the first.  :meth:`events` rebuilds all of them.
    """

    __slots__ = ("last", "count", "period")

    def __init__(self, last: AccessEvent, count: int, period: int):
        self.last = last
        self.count = count
        self.period = period

    def events(self) -> Iterator[AccessEvent]:
        """Every access the repeat stands for, in step order."""
        last = self.last
        first = last.step - (self.count - 1) * self.period
        for step in range(first, last.step, self.period):
            yield last.at_step(step)
        yield last

    def __repr__(self) -> str:
        return "<AccessRepeat %r x%d every %d steps>" % (
            self.last, self.count, self.period)


class SyncEvent(TraceEvent):
    """A synchronization operation creating happens-before edges."""

    ACQUIRE = "acquire"
    RELEASE = "release"

    __slots__ = ("kind", "address", "instruction")

    def __init__(self, thread_id: int, step: int, kind: str, address: int,
                 instruction: Optional[Instruction] = None):
        super().__init__(thread_id, step)
        self.kind = kind
        self.address = address
        self.instruction = instruction

    def __repr__(self) -> str:
        return "<Sync t%d %s 0x%x>" % (self.thread_id, self.kind, self.address)


class ThreadLifecycleEvent(TraceEvent):
    """Thread creation, start, join and exit."""

    CREATE = "create"
    START = "start"
    EXIT = "exit"
    JOIN = "join"

    __slots__ = ("kind", "other_thread_id")

    def __init__(self, thread_id: int, step: int, kind: str, other_thread_id: int):
        super().__init__(thread_id, step)
        self.kind = kind
        self.other_thread_id = other_thread_id

    def __repr__(self) -> str:
        return "<Thread t%d %s t%d>" % (self.thread_id, self.kind, self.other_thread_id)


class AllocEvent(TraceEvent):
    """A heap allocation."""

    __slots__ = ("address", "size")

    def __init__(self, thread_id: int, step: int, address: int, size: int):
        super().__init__(thread_id, step)
        self.address = address
        self.size = size


class FreeEvent(TraceEvent):
    """A heap free."""

    __slots__ = ("address",)

    def __init__(self, thread_id: int, step: int, address: int):
        super().__init__(thread_id, step)
        self.address = address


class ExternalCallEvent(TraceEvent):
    """A call into an external (runtime-implemented) function."""

    __slots__ = ("name", "arguments", "instruction", "call_stack")

    def __init__(
        self,
        thread_id: int,
        step: int,
        name: str,
        arguments: Sequence[int],
        instruction: Optional[Instruction],
        call_stack: CallStack,
    ):
        super().__init__(thread_id, step)
        self.name = name
        self.arguments = tuple(arguments)
        self.instruction = instruction
        self.call_stack = call_stack

    def __repr__(self) -> str:
        return "<Ext t%d %s%r>" % (self.thread_id, self.name, self.arguments)


class TraceObserver:
    """Interface for components consuming the execution trace.

    All hooks default to no-ops so observers override only what they need.

    Repeats.  A fused run of a read-only loop trace (loads, compares,
    arithmetic, GEPs and branches) reaches a fixed point once an
    iteration writes the same register values as the one before and
    records no fault: only the granted thread runs, so every later
    iteration repeats it except for its steps.  The VM may then skip the
    grant's remaining whole iterations.  It first asks every observer
    :meth:`accepts_repeat` about each access of the repeating iteration;
    if any observer refuses any of them, nothing is skipped and every
    event arrives as usual.  Otherwise each observer gets one
    :meth:`on_repeats` call with one :class:`AccessRepeat` per load, and
    must end up exactly as if :meth:`on_access` had seen every event the
    repeats stand for.  Only access events are ever skipped: the loop
    syncs, allocates, calls and faults nowhere.  The skipped steps are
    still counted and committed to the scheduler (the random scheduler's
    ``commit`` still draws entropy for every one), so schedules do not
    change.  The base class refuses, so an observer that does not opt in
    sees every event.
    """

    def on_access(self, event: AccessEvent) -> None:
        pass

    def on_sync(self, event: SyncEvent) -> None:
        pass

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        pass

    def on_alloc(self, event: AllocEvent) -> None:
        pass

    def on_free(self, event: FreeEvent) -> None:
        pass

    def on_external_call(self, event: ExternalCallEvent) -> None:
        pass

    def on_fault(self, event) -> None:
        pass

    def accepts_repeat(self, event: AccessEvent) -> bool:
        """Whether repeats of ``event`` may stand in for the events.

        A pure query: it must change nothing, because a refusal by any
        observer leaves the run exactly as it would have been.
        """
        return False

    def on_repeats(self, repeats: Sequence[AccessRepeat]) -> None:
        """Account one skip's repeats, one per load of the iteration in
        iteration order, each with the same count.

        The default hands every event the repeats stand for to
        :meth:`on_access`, in the order a stepwise run delivers them.
        """
        for events in zip(*(repeat.events() for repeat in repeats)):
            for event in events:
                self.on_access(event)

    def on_finish(self, vm) -> None:
        pass
