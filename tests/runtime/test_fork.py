"""``VM.fork``: a copy of one execution that runs on independently.

A fork taken at any step runs to the same end as its original would have
(step, end reason, faults, memory bytes and freed flags, OS world and
every thread's state), whichever of the two runs first; it shares the
module, the fuse engine and the address maps, and nothing it mutates.
"""

import pytest

from repro.apps.registry import known_spec_names, spec_by_name
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, ptr
from repro.runtime import VM, ExecutionResult, RoundRobinScheduler
from repro.runtime.debugger import Debugger
from repro.runtime.interpreter import reference_execution
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.thread import ThreadState
from tests.helpers import build_counter_race

SEEDS = (0, 3)
CUTS = (0, 1, 40, 200, 1500)


def outcome(vm, result):
    """Everything a finished execution leaves behind."""
    world = vm.world
    return {
        "result": (result.reason, result.steps, result.exit_code),
        "step": vm.step,
        "faults": [(f.kind, f.thread_id, f.step, f.message, f.address)
                   for f in vm.faults],
        "recorded_faults": [(f.kind, f.message)
                            for f in vm.memory.recorded_faults],
        "memory": [(b.base, b.kind, b.name, bytes(b.data), b.freed,
                    b.free_step, b.fields) for b in vm.memory.blocks()],
        "world": (world.uid, world.euid, world.exit_code,
                  world.process_killed, bytes(world.stdout),
                  list(world.file_access_log),
                  [(r.kind, r.command, r.uid, r.euid, r.step)
                   for r in world.exec_log],
                  [(r.kind, r.target, r.step) for r in world.privilege_log],
                  {path: bytes(f.content)
                   for path, f in world.files_by_path.items()}),
        "threads": [(t.thread_id, t.name, t.state, t.steps_executed,
                     t.return_value, t.blocked_on, t.wake_step,
                     list(t.held_mutexes),
                     [(f.function, f.block, f.index,
                       sorted(f.registers.items(), key=lambda kv: id(kv[0])),
                       [b.base for b in f.allocas]) for f in t.frames])
                    for t in vm.threads.values()],
        "mutexes": dict(vm.mutexes),
        "cond_waiters": dict(vm.cond_waiters),
    }


def finish(vm):
    return outcome(vm, vm.run())


def check_fork(make_vm, cut):
    """Fork at ``cut``; the fork and the original, fork first, end as a
    straight run does."""
    straight = finish(make_vm())
    vm = make_vm()
    vm.run(max_steps=cut)
    twin = vm.fork()
    assert finish(twin) == straight
    assert finish(vm) == straight
    return vm, twin


def started(spec, seed):
    def make_vm():
        vm = spec.make_vm(seed)
        vm.start(spec.entry)
        return vm
    return make_vm


@pytest.mark.parametrize("name", known_spec_names())
def test_every_program_forks_at_any_cut(name):
    spec = spec_by_name(name)
    for seed in SEEDS:
        for cut in CUTS:
            check_fork(started(spec, seed), cut)


def test_fork_shares_the_ir_and_copies_the_state():
    spec = spec_by_name("chrome")
    vm = started(spec, 0)()
    vm.run(max_steps=200)
    twin = vm.fork()
    assert twin.module is vm.module
    assert twin.fuse_engine is vm.fuse_engine
    assert twin._function_addresses is vm._function_addresses
    assert twin._global_addresses is vm._global_addresses
    assert twin.debugger is None and twin.observers == []
    originals = {id(block) for block in vm.memory.blocks()}
    assert not originals & {id(block) for block in twin.memory.blocks()}
    for thread_id, thread in vm.threads.items():
        copy = twin.threads[thread_id]
        assert copy is not thread
        for name in ("_cond_state", "_sleep_state"):
            if name in thread.__dict__:
                assert copy.__dict__[name] == thread.__dict__[name]
                assert copy.__dict__[name] is not thread.__dict__[name]
        for frame, twin_frame in zip(thread.frames, copy.frames):
            assert twin_frame.registers is not frame.registers
            for block, twin_block in zip(frame.allocas, twin_frame.allocas):
                assert twin_block is twin.memory.block_at(block.base)
    assert twin.scheduler is not vm.scheduler
    assert twin.scheduler._rng is not vm.scheduler._rng
    assert twin.rng is not vm.rng
    sleeping = [t for t in vm.threads.values()
                if t.__dict__.get("_sleep_state")]
    assert sleeping, "chrome at step 200 has a thread in io_delay"


def build_condvar_module() -> Module:
    """A waiter blocked on a condvar until a sleeping signaller wakes it."""
    b = IRBuilder(Module("condvar"))
    lock = b.global_var("lock", I64, 0)
    cond = b.global_var("cond", I64, 0)
    ready = b.global_var("ready", I64, 0)

    def as_ptr(value, line):
        return b.cast("bitcast", value, ptr(I8), line=line)

    b.begin_function("waiter", I32, [("arg", ptr(I8))], source_file="cv.c")
    b.call("mutex_lock", [as_ptr(lock, 1)], line=1)
    b.br("check", line=2)
    b.at("check")
    flag = b.load(ready, line=2)
    unset = b.icmp("eq", flag, 0, line=2)
    b.cond_br(unset, "wait", "done", line=2)
    b.at("wait")
    b.call("cond_wait", [as_ptr(cond, 3), as_ptr(lock, 3)], line=3)
    b.br("check", line=3)
    b.at("done")
    b.call("mutex_unlock", [as_ptr(lock, 4)], line=4)
    b.ret(b.i32(0), line=4)
    b.end_function()

    b.begin_function("signaller", I32, [("arg", ptr(I8))],
                     source_file="cv.c")
    b.call("usleep", [30], line=10)
    b.call("mutex_lock", [as_ptr(lock, 11)], line=11)
    b.store(1, ready, line=12)
    b.call("cond_signal", [as_ptr(cond, 13)], line=13)
    b.call("mutex_unlock", [as_ptr(lock, 14)], line=14)
    b.ret(b.i32(0), line=14)
    b.end_function()

    b.begin_function("main", I32, [], source_file="cv.c")
    b.call("cond_init", [as_ptr(cond, 20)], line=20)
    waiter = b.call("thread_create",
                    [b.module.get_function("waiter"), b.null()], line=21)
    signaller = b.call("thread_create",
                       [b.module.get_function("signaller"), b.null()],
                       line=22)
    b.call("thread_join", [waiter], line=23)
    b.call("thread_join", [signaller], line=24)
    b.ret(b.i32(0), line=25)
    b.end_function()
    verify_module(b.module)
    return b.module


def test_forks_in_a_condvar_wait_and_a_sleep_run_on_alike():
    module = build_condvar_module()
    seen = set()
    for seed in range(4):
        def make_vm():
            vm = VM(module, scheduler=RandomScheduler(seed), seed=seed)
            vm.start("main")
            return vm
        end = make_vm().run().steps
        for cut in range(end + 1):
            probe = make_vm()
            probe.run(max_steps=cut)
            for thread in probe.threads.values():
                seen.update(name for name in ("_cond_state", "_sleep_state")
                            if thread.__dict__.get(name))
            check_fork(make_vm, cut)
    assert seen == {"_cond_state", "_sleep_state"}


def test_a_halted_thread_stays_halted_in_the_fork():
    module = build_counter_race(iterations=3)
    store = module.find_instructions(filename="counter.c", line=13,
                                     opcode="store")[0]

    def halted_vm():
        vm = VM(module, scheduler=RandomScheduler(1), seed=1)
        debugger = Debugger(vm)
        debugger.add_breakpoint(store)
        vm.start("main")
        assert vm.run().reason == ExecutionResult.BREAKPOINT
        debugger.detach()
        return vm

    def release(vm):
        assert Debugger(vm).release_one() is not None
        return finish(vm)

    vm = halted_vm()
    twin = vm.fork()
    halted = [t.thread_id for t in twin.threads.values()
              if t.state is ThreadState.HALTED]
    assert halted == [t.thread_id for t in vm.threads.values()
                      if t.state is ThreadState.HALTED] != []
    assert twin._halted_count == vm._halted_count == 1
    straight = release(halted_vm())
    assert release(twin) == straight
    assert release(vm) == straight


def build_deadlock_module() -> Module:
    b = IRBuilder(Module("deadlock"))
    lock_a = b.global_var("la", I64, 0)
    lock_b = b.global_var("lb", I64, 0)

    def locker(name, first, second):
        b.begin_function(name, I32, [("arg", ptr(I8))], source_file="d.c")
        b.call("mutex_lock", [b.cast("bitcast", first, ptr(I8), line=1)],
               line=1)
        b.call("usleep", [50], line=2)
        b.call("mutex_lock", [b.cast("bitcast", second, ptr(I8), line=3)],
               line=3)
        b.ret(b.i32(0), line=4)
        b.end_function()

    locker("t1", lock_a, lock_b)
    locker("t2", lock_b, lock_a)
    b.begin_function("main", I32, [], source_file="d.c")
    h1 = b.call("thread_create", [b.module.get_function("t1"), b.null()],
                line=5)
    h2 = b.call("thread_create", [b.module.get_function("t2"), b.null()],
                line=6)
    b.call("thread_join", [h1], line=7)
    b.call("thread_join", [h2], line=8)
    b.ret(b.i32(0), line=9)
    b.end_function()
    verify_module(b.module)
    return b.module


def build_null_store_module() -> Module:
    b = IRBuilder(Module("null_store"))
    b.begin_function("main", I32, [], source_file="n.c")
    b.store(1, b.null(I64), line=1)
    b.ret(b.i32(0), line=2)
    b.end_function()
    verify_module(b.module)
    return b.module


@pytest.mark.parametrize("build, reason", [
    (build_deadlock_module, ExecutionResult.DEADLOCK),
    (build_null_store_module, ExecutionResult.FAULT),
])
def test_an_ended_execution_forks_into_the_same_end(build, reason):
    module = build()

    def ended_vm():
        vm = VM(module, scheduler=RoundRobinScheduler())
        vm.start("main")
        assert vm.run().reason == reason
        return vm

    vm = ended_vm()
    twin = vm.fork()
    straight = finish(ended_vm())
    assert straight["result"][0] == reason
    assert finish(twin) == straight
    assert finish(vm) == straight


def test_a_reference_mode_vm_forks_into_reference_mode():
    spec = spec_by_name("memcached")
    with reference_execution():
        make_vm = started(spec, 0)
        vm, twin = check_fork(make_vm, 300)
    assert twin.reference and twin.execute.__self__ is twin
