"""Semantics of the external (runtime-implemented) functions.

Externals are the reproduction's libc + syscall + pthread layer.  The
security-sensitive ones are OWL's vulnerable sites (paper section 3.2):

- memory operations: ``strcpy``/``memcpy``/... perform real byte copies with
  block- and field-bound checking, so overflows actually corrupt memory;
- privilege operations: ``setuid``/``commit_creds`` mutate
  :class:`repro.runtime.os_model.OSWorld` credentials;
- file operations: ``access``/``open``/``write`` hit the world's file table;
- process-forking operations: ``execve``/``system``/``eval`` append to the
  world's exec log (a root shell is an exec with euid 0).

Blocking externals (``mutex_lock``, ``thread_join``, ``cond_wait``,
``io_delay``) communicate with the interpreter by raising :class:`Block`,
which leaves the program counter on the call so it retries when the thread is
next scheduled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.runtime.errors import FaultEvent, FaultKind
from repro.runtime.events import SyncEvent
from repro.runtime.memory import MemoryBlock
from repro.runtime.os_model import PrivilegeRecord


class Block(Exception):
    """Raised by an external to block the calling thread; the call retries."""

    def __init__(self, reason: str, wake_step: Optional[int] = None):
        super().__init__(reason)
        self.reason = reason
        self.wake_step = wake_step


class ProcessExit(Exception):
    """Raised by ``exit`` / ``kill_process`` / ``abort``."""

    def __init__(self, code: int, killed: bool = False):
        super().__init__("exit(%d)" % code)
        self.code = code
        self.killed = killed


ExternalImpl = Callable[["object", "object", object, List[int]], Optional[int]]

_REGISTRY: Dict[str, ExternalImpl] = {}


def external(name: str):
    def decorate(impl: ExternalImpl) -> ExternalImpl:
        _REGISTRY[name] = impl
        return impl
    return decorate


def lookup(name: str) -> ExternalImpl:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError("no runtime implementation for external %r" % name) from None


@contextmanager
def overridden(name: str, impl: ExternalImpl):
    """Temporarily replace one external's implementation.

    Used by the repair oracle to neutralize timing externals
    (``io_delay``/``usleep``) when computing a *serialized reference*
    execution: delays only constrain when a work-conserving scheduler runs
    the other threads, so the delay-free behaviours are exactly the
    behaviours of the idealized semantics in which a scheduler may idle —
    including the fully serialized one no work-conserving schedule can
    produce.  The override is process-global while the context is open;
    callers run single-threaded (the repair path is serial by design).
    """
    saved = _REGISTRY.get(name)
    _REGISTRY[name] = impl
    try:
        yield
    finally:
        if saved is None:
            _REGISTRY.pop(name, None)
        else:
            _REGISTRY[name] = saved


# ---------------------------------------------------------------------------
# memory management

@external("malloc")
def _malloc(vm, thread, call, args):
    size = args[0]
    block = vm.memory.allocate(size, MemoryBlock.HEAP, name="heap#%d" % vm.step,
                               step=vm.step)
    vm.emit_alloc(thread, block)
    return block.base


@external("free")
def _free(vm, thread, call, args):
    address = args[0]
    if address == 0:
        return 0  # free(NULL) is a no-op, as in C
    fault = vm.memory.free(address, thread.thread_id, vm.step, thread.call_stack())
    if fault is not None:
        vm.raise_fault(fault)
    else:
        vm.emit_free(thread, address)
    return 0


@external("realloc")
def _realloc(vm, thread, call, args):
    address, size = args[0], args[1]
    if address == 0:
        return _malloc(vm, thread, call, [size])
    old = vm.memory.block_at(address)
    fault = vm.memory.free(address, thread.thread_id, vm.step, thread.call_stack())
    if fault is not None:
        # free() already classified the failure (invalid/double free).
        vm.raise_fault(fault)
        return 0
    vm.emit_free(thread, address)
    new = vm.memory.allocate(size, MemoryBlock.HEAP, name="heap#%d" % vm.step,
                             step=vm.step)
    preserved = min(old.size, new.size)
    new.data[:preserved] = old.data[:preserved]
    vm.emit_alloc(thread, new)
    return new.base


# ---------------------------------------------------------------------------
# memory operations (vulnerable site type MEMORY_OP)

def _checked_copy(vm, thread, call, dst: int, data: bytes) -> None:
    """Copy bytes to dst with block/field bound enforcement."""
    if not data:
        return
    block, fault = vm.memory.check_access(
        dst, len(data), True, thread.thread_id, vm.step, thread.call_stack(),
    )
    if fault is not None and fault.kind == FaultKind.BUFFER_OVERFLOW:
        # Corrupt up to the block end, then fault: the overflow is real.
        writable = block.end - dst
        vm.memory.write_bytes(dst, data[:writable])
        vm.raise_fault(fault)
        return
    if fault is not None:
        vm.raise_fault(fault)
        if block is None:
            return
    if block is not None and block.fields:
        offset = dst - block.base
        field = block.field_at(offset)
        if field is not None and offset + len(data) > field[1] + field[2]:
            overflowed = block.field_at(field[1] + field[2])
            vm.record_fault(FaultEvent(
                FaultKind.FIELD_OVERFLOW, thread.thread_id,
                "write of %d bytes at %s overflows into field %s" % (
                    len(data), block.describe_offset(offset),
                    overflowed[0] if overflowed else "<past-end>",
                ),
                address=dst, call_stack=thread.call_stack(), step=vm.step,
            ))
    vm.memory.write_bytes(dst, data)
    vm.emit_range_access(thread, call, dst, len(data), is_write=True)


@external("strcpy")
def _strcpy(vm, thread, call, args):
    dst, src = args[0], args[1]
    data = vm.memory.read_c_string(src) + b"\x00"
    vm.emit_range_access(thread, call, src, len(data), is_write=False)
    _checked_copy(vm, thread, call, dst, data)
    return dst


@external("strncpy")
def _strncpy(vm, thread, call, args):
    dst, src, count = args[0], args[1], args[2]
    data = vm.memory.read_c_string(src)[:count]
    data = data + b"\x00" * (count - len(data))
    vm.emit_range_access(thread, call, src, max(1, len(data)), is_write=False)
    _checked_copy(vm, thread, call, dst, data)
    return dst


@external("strcat")
def _strcat(vm, thread, call, args):
    dst, src = args[0], args[1]
    existing = vm.memory.read_c_string(dst)
    data = vm.memory.read_c_string(src) + b"\x00"
    _checked_copy(vm, thread, call, dst + len(existing), data)
    return dst


@external("memcpy")
def _memcpy(vm, thread, call, args):
    dst, src, count = args[0], args[1], args[2]
    if count <= 0:
        return dst
    src_block, fault = vm.memory.check_access(
        src, count, False, thread.thread_id, vm.step, thread.call_stack(),
    )
    if fault is not None:
        vm.raise_fault(fault)
        if src_block is None:
            return dst
        count = min(count, src_block.end - src)
    data = vm.memory.read_bytes(src, count)
    vm.emit_range_access(thread, call, src, count, is_write=False)
    _checked_copy(vm, thread, call, dst, data)
    return dst


@external("memset")
def _memset(vm, thread, call, args):
    dst, byte, count = args[0], args[1] & 0xFF, args[2]
    if count > 0:
        _checked_copy(vm, thread, call, dst, bytes([byte]) * count)
    return dst


@external("sprintf")
def _sprintf(vm, thread, call, args):
    dst, fmt = args[0], args[1]
    text = _format(vm, fmt, args[2:])
    _checked_copy(vm, thread, call, dst, text + b"\x00")
    return len(text)


@external("strlen")
def _strlen(vm, thread, call, args):
    return len(vm.memory.read_c_string(args[0]))


@external("strcmp")
def _strcmp(vm, thread, call, args):
    a = vm.memory.read_c_string(args[0])
    b = vm.memory.read_c_string(args[1])
    return 0 if a == b else (1 if a > b else -1) & ((1 << 32) - 1)


# ---------------------------------------------------------------------------
# privilege operations (PRIVILEGE_OP)

def _privilege(kind: str):
    @external(kind)
    def impl(vm, thread, call, args, _kind=kind):
        target = args[0] if args else 0
        vm.world.set_uid(_kind, target, vm.step)
        return 0
    return impl


_privilege("setuid")
_privilege("seteuid")
_privilege("setgid")


@external("setgroups")
def _setgroups(vm, thread, call, args):
    vm.world.privilege_log.append(PrivilegeRecord("setgroups", args[0], vm.step))
    return 0


@external("commit_creds")
def _commit_creds(vm, thread, call, args):
    # The credential struct pointer's first 4 bytes hold the uid, kernel-style.
    cred_ptr = args[0]
    uid = vm.memory.read_int(cred_ptr, 4, signed=False) if cred_ptr else 0
    vm.world.set_uid("commit_creds", uid, vm.step)
    return 0


# ---------------------------------------------------------------------------
# file operations (FILE_OP)

@external("access")
def _access(vm, thread, call, args):
    path = vm.memory.read_c_string(args[0]).decode(errors="replace")
    vm.world.file_access_log.append(("access", path, vm.step))
    return 0


@external("open")
def _open(vm, thread, call, args):
    path = vm.memory.read_c_string(args[0]).decode(errors="replace")
    return vm.world.open_file(path, vm.step)


@external("chmod")
def _chmod(vm, thread, call, args):
    path = vm.memory.read_c_string(args[0]).decode(errors="replace")
    vm.world.file_access_log.append(("chmod", path, vm.step))
    return 0


@external("unlink")
def _unlink(vm, thread, call, args):
    path = vm.memory.read_c_string(args[0]).decode(errors="replace")
    vm.world.file_access_log.append(("unlink", path, vm.step))
    return 0


@external("write")
def _write(vm, thread, call, args):
    fd, buffer, count = args[0], args[1], args[2]
    block, fault = vm.memory.check_access(
        buffer, max(1, count), False, thread.thread_id, vm.step, thread.call_stack(),
    )
    if fault is not None:
        vm.raise_fault(fault)
        if block is None:
            return -1 & ((1 << 64) - 1)
        count = min(count, block.end - buffer)
    data = vm.memory.read_bytes(buffer, count)
    vm.emit_range_access(thread, call, buffer, max(1, count), is_write=False)
    return vm.world.write_fd(fd, data, vm.step) & ((1 << 64) - 1)


@external("read")
def _read(vm, thread, call, args):
    return 0


@external("close")
def _close(vm, thread, call, args):
    return 0


# ---------------------------------------------------------------------------
# process forking operations (FORK_OP)

def _exec_like(kind: str):
    @external(kind)
    def impl(vm, thread, call, args, _kind=kind):
        command = ""
        if args and args[0]:
            command = vm.memory.read_c_string(args[0]).decode(errors="replace")
        vm.world.record_exec(_kind, command, vm.step)
        return 0
    return impl


_exec_like("execve")
_exec_like("system")
_exec_like("eval")


@external("fork")
def _fork(vm, thread, call, args):
    vm.world.record_exec("fork", "", vm.step)
    return 0  # child's view; the model does not simulate child processes


# ---------------------------------------------------------------------------
# threads

@external("thread_create")
def _thread_create(vm, thread, call, args):
    function_address, argument = args[0], args[1]
    target = vm.function_at(function_address)
    if target is None:
        vm.raise_fault(FaultEvent(
            FaultKind.NULL_DEREF if function_address == 0 else FaultKind.WILD_ACCESS,
            thread.thread_id,
            "thread_create through invalid function pointer 0x%x" % function_address,
            address=function_address, call_stack=thread.call_stack(), step=vm.step,
        ))
        return 0
    child = vm.spawn_thread(target, [argument], creator=thread)
    return child.thread_id


@external("thread_join")
def _thread_join(vm, thread, call, args):
    target = vm.threads.get(args[0])
    if target is None:
        return -1 & ((1 << 32) - 1)
    from repro.runtime.thread import ThreadState

    if target.state != ThreadState.FINISHED:
        raise Block("join t%d" % target.thread_id)
    vm.emit_join(thread, target)
    return 0


@external("thread_exit")
def _thread_exit(vm, thread, call, args):
    vm.finish_thread(thread, 0)
    return None


@external("thread_yield")
def _thread_yield(vm, thread, call, args):
    return 0


# ---------------------------------------------------------------------------
# synchronization

@external("mutex_init")
def _mutex_init(vm, thread, call, args):
    vm.mutexes.setdefault(args[0], None)
    return 0


@external("mutex_lock")
def _mutex_lock(vm, thread, call, args):
    address = args[0]
    holder = vm.mutexes.get(address)
    if holder is not None and holder != thread.thread_id:
        raise Block("mutex 0x%x" % address)
    vm.mutexes[address] = thread.thread_id
    thread.held_mutexes.append(address)
    vm.emit_sync(thread, SyncEvent.ACQUIRE, address, call)
    return 0


@external("mutex_unlock")
def _mutex_unlock(vm, thread, call, args):
    address = args[0]
    if vm.mutexes.get(address) == thread.thread_id:
        vm.mutexes[address] = None
        if address in thread.held_mutexes:
            thread.held_mutexes.remove(address)
    vm.emit_sync(thread, SyncEvent.RELEASE, address, call)
    return 0


@external("cond_init")
def _cond_init(vm, thread, call, args):
    vm.cond_waiters.setdefault(args[0], [])
    return 0


@external("cond_wait")
def _cond_wait(vm, thread, call, args):
    cond, mutex = args[0], args[1]
    state = thread.__dict__.setdefault("_cond_state", {})
    phase = state.get(call, 0)
    if phase == 0:
        # Release the mutex, register as a waiter, block until signalled.
        if vm.mutexes.get(mutex) == thread.thread_id:
            vm.mutexes[mutex] = None
            if mutex in thread.held_mutexes:
                thread.held_mutexes.remove(mutex)
            vm.emit_sync(thread, SyncEvent.RELEASE, mutex, call)
        vm.cond_waiters.setdefault(cond, []).append(thread.thread_id)
        state[call] = 1
        raise Block("cond 0x%x" % cond)
    if phase == 1:
        if thread.thread_id in vm.cond_waiters.get(cond, []):
            raise Block("cond 0x%x" % cond)
        state[call] = 2  # signalled; now re-acquire the mutex
    holder = vm.mutexes.get(mutex)
    if holder is not None and holder != thread.thread_id:
        raise Block("mutex 0x%x" % mutex)
    vm.mutexes[mutex] = thread.thread_id
    thread.held_mutexes.append(mutex)
    vm.emit_sync(thread, SyncEvent.ACQUIRE, mutex, call)
    state.pop(call, None)
    return 0


@external("cond_signal")
def _cond_signal(vm, thread, call, args):
    waiters = vm.cond_waiters.get(args[0], [])
    if waiters:
        woken = waiters.pop(0)
        vm.unblock(woken)
    vm.emit_sync(thread, SyncEvent.RELEASE, args[0], call)
    return 0


@external("cond_broadcast")
def _cond_broadcast(vm, thread, call, args):
    waiters = vm.cond_waiters.get(args[0], [])
    while waiters:
        vm.unblock(waiters.pop(0))
    vm.emit_sync(thread, SyncEvent.RELEASE, args[0], call)
    return 0


@external("atomic_add")
def _atomic_add(vm, thread, call, args):
    address, delta = args[0], args[1]
    vm.emit_sync(thread, SyncEvent.ACQUIRE, address, call)
    old = vm.memory.read_int(address, 8, signed=False)
    vm.memory.write_int(address, old + delta, 8)
    vm.emit_sync(thread, SyncEvent.RELEASE, address, call)
    return old


@external("atomic_sub")
def _atomic_sub(vm, thread, call, args):
    address, delta = args[0], args[1]
    vm.emit_sync(thread, SyncEvent.ACQUIRE, address, call)
    old = vm.memory.read_int(address, 8, signed=False)
    vm.memory.write_int(address, old - delta, 8)
    vm.emit_sync(thread, SyncEvent.RELEASE, address, call)
    return old


@external("tsan_acquire")
def _tsan_acquire(vm, thread, call, args):
    vm.emit_sync(thread, SyncEvent.ACQUIRE, args[0], call)
    return None


@external("tsan_release")
def _tsan_release(vm, thread, call, args):
    vm.emit_sync(thread, SyncEvent.RELEASE, args[0], call)
    return None


# ---------------------------------------------------------------------------
# timing

@external("io_delay")
def _io_delay(vm, thread, call, args):
    state = thread.__dict__.setdefault("_sleep_state", {})
    if state.get(call):
        state.pop(call, None)
        return None
    state[call] = True
    raise Block("io_delay", wake_step=vm.step + max(1, args[0]))


@external("usleep")
def _usleep(vm, thread, call, args):
    state = thread.__dict__.setdefault("_sleep_state", {})
    if state.get(call):
        state.pop(call, None)
        return None
    state[call] = True
    raise Block("usleep", wake_step=vm.step + max(1, args[0]))


# ---------------------------------------------------------------------------
# misc

def _format(vm, fmt_address: int, varargs) -> bytes:
    """A tiny printf: supports %d, %u, %s, %x, %%."""
    fmt = vm.memory.read_c_string(fmt_address)
    out = bytearray()
    arg_iter = iter(varargs)
    i = 0
    while i < len(fmt):
        byte = fmt[i]
        if byte != ord("%") or i + 1 >= len(fmt):
            out.append(byte)
            i += 1
            continue
        spec = chr(fmt[i + 1])
        i += 2
        if spec == "%":
            out.append(ord("%"))
        elif spec in ("d", "i"):
            value = next(arg_iter, 0)
            if value >= 1 << 63:
                value -= 1 << 64
            out.extend(str(value).encode())
        elif spec == "u":
            out.extend(str(next(arg_iter, 0)).encode())
        elif spec == "x":
            out.extend(("%x" % next(arg_iter, 0)).encode())
        elif spec == "s":
            pointer = next(arg_iter, 0)
            out.extend(vm.memory.read_c_string(pointer) if pointer else b"(null)")
        else:
            out.extend(b"%" + spec.encode())
    return bytes(out)


@external("printf")
def _printf(vm, thread, call, args):
    text = _format(vm, args[0], args[1:])
    vm.world.stdout.extend(text)
    return len(text)


@external("puts")
def _puts(vm, thread, call, args):
    text = vm.memory.read_c_string(args[0]) + b"\n"
    vm.world.stdout.extend(text)
    return len(text)


@external("exit")
def _exit(vm, thread, call, args):
    raise ProcessExit(args[0] if args else 0)


@external("abort")
def _abort(vm, thread, call, args):
    raise ProcessExit(134, killed=True)


@external("kill_process")
def _kill_process(vm, thread, call, args):
    raise ProcessExit(137, killed=True)


@external("getpid")
def _getpid(vm, thread, call, args):
    return 4242


@external("getuid")
def _getuid(vm, thread, call, args):
    return vm.world.uid


@external("rand_range")
def _rand_range(vm, thread, call, args):
    bound = max(1, args[0])
    return vm.rng.randrange(bound)


@external("input_int")
def _input_int(vm, thread, call, args):
    return vm.next_input(args[0])


@external("input_str")
def _input_str(vm, thread, call, args):
    value = vm.next_input(args[0])
    if isinstance(value, int):
        value = str(value)
    data = value.encode() if isinstance(value, str) else bytes(value)
    block = vm.memory.allocate(len(data) + 1, MemoryBlock.HEAP,
                               name="input#%d" % vm.step, step=vm.step)
    vm.memory.write_bytes(block.base, data + b"\x00")
    return block.base
