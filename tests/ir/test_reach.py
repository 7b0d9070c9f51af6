"""The static may-reach analysis and the race verifier's early stop."""

import pytest

from repro.apps.support import add_publish_races
from repro.detectors.report import AccessRecord, RaceReport
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.instructions import Call, Store
from repro.ir.patch import ModulePatcher
from repro.ir.reach import RACE, SPAWN, UNKNOWN, reach_analysis
from repro.ir.types import FunctionType, I32, I64, I8, ptr
from repro.owl.race_verifier import DynamicRaceVerifier
from repro.runtime.debugger import Debugger
from repro.runtime.interpreter import VM, ExecutionResult, reference_execution
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.spans import SpanTracer
from repro.runtime.thread import ThreadState


def _report(first, second):
    return RaceReport(AccessRecord(first, 1, True, 0, (), 0),
                      AccessRecord(second, 2, True, 0, (), 0))


def _store_at(module, line):
    [store] = [i for i in module.find_instructions(line=line)
               if isinstance(i, Store)]
    return store


def _outcome(verification):
    hints = verification.hints
    return (verification.verified, verification.runs_used,
            None if hints is None else (hints.address, hints.read_value,
                                        hints.write_value, hints.null_write))


def _both_modes(module, report, seeds=range(4)):
    """The verifier's outcome in reference mode and as shipped."""
    with reference_execution():
        reference = DynamicRaceVerifier(module, seeds=seeds).verify(report)
    shipped = DynamicRaceVerifier(module, seeds=seeds).verify(report)
    return reference, shipped


def _rule_per_step(module, targets, seed=0, max_steps=5_000):
    """Run to the end one step at a time; yield (vm, rule) before each."""
    reach = reach_analysis(module).for_targets(targets)
    vm = VM(module, scheduler=RandomScheduler(seed), max_steps=max_steps,
            seed=seed)
    vm.start("main")
    while True:
        yield vm, reach.out_of_reach(t.frames for t in vm._alive)
        result = vm.run(max_steps=1)
        if (result.reason != ExecutionResult.STEP_LIMIT
                or vm.step >= vm.max_steps):
            return


def _publish_module():
    b = IRBuilder(Module("pub"))
    producer, consumer = add_publish_races(b, 1, "pub.c", iterations=3)
    b.begin_function("main", I32, [], source_file="pub.c")
    handles = [b.call("thread_create", [b.module.get_function(name),
                                        b.null()], line=1)
               for name in (producer, consumer)]
    for handle in handles:
        b.call("thread_join", [handle], line=2)
    b.ret(b.i32(0), line=3)
    b.end_function()
    verify_module(b.module)
    # the producer's and the consumer's field writes
    return b.module, (_store_at(b.module, 7001), _store_at(b.module, 7502))


def _two_spawns_module():
    """main runs ``racer`` twice, joining the first before the second."""
    b = IRBuilder(Module("spawns"))
    shared = b.global_var("shared", I64, 0)
    b.begin_function("racer", I32, [("arg", ptr(I8))], source_file="s.c")
    b.store(1, shared, line=10)
    b.ret(b.i32(0), line=11)
    b.end_function()
    b.begin_function("main", I32, [], source_file="s.c")
    racer = b.module.get_function("racer")
    first = b.call("thread_create", [racer, b.null()], line=20)
    b.call("thread_join", [first], line=21)
    second = b.call("thread_create", [racer, b.null()], line=22)
    b.call("thread_join", [second], line=23)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(b.module)
    return b.module, second


def _indirect_module():
    """A worker reaches the racing store only through a function pointer."""
    b = IRBuilder(Module("indirect"))
    shared = b.global_var("shared", I64, 0)
    pointer = b.global_var("handler", I64, 0)
    b.begin_function("racer", I32, [("arg", ptr(I8))], source_file="i.c")
    b.store(1, shared, line=10)
    b.ret(b.i32(0), line=11)
    b.end_function()
    b.begin_function("worker", I32, [("arg", ptr(I8))], source_file="i.c")
    address = b.load(pointer, line=20)
    target = b.cast("inttoptr", address,
                    ptr(FunctionType(I32, [ptr(I8)])), line=20)
    call = b.call(target, [b.null()], line=21)
    b.ret(b.i32(0), line=22)
    b.end_function()
    b.begin_function("main", I32, [], source_file="i.c")
    racer = b.module.get_function("racer")
    b.store(b.cast("ptrtoint", racer, I64, line=30), pointer, line=30)
    handles = [b.call("thread_create", [b.module.get_function("worker"),
                                        b.null()], line=31)
               for _ in range(2)]
    for handle in handles:
        b.call("thread_join", [handle], line=32)
    b.ret(b.i32(0), line=33)
    b.end_function()
    verify_module(b.module)
    return b.module, call


class TestSummaries:
    def test_publish_summaries(self):
        module, targets = _publish_module()
        reach = reach_analysis(module).for_targets(targets)
        main = module.get_function("main")
        producer = module.get_function("job_producer_pub")
        consumer = module.get_function("job_consumer_pub")
        assert reach.summary[main] == SPAWN
        assert reach.summary[producer] == RACE
        assert reach.summary[consumer] == RACE
        # the consumer's loop exit drops RACE: its branch is watched
        loop = consumer.get_block("consume0")
        assert loop.terminator in reach.watch
        assert reach.bits_at(consumer.get_block("consumed0"), 0) == 0
        assert reach.bits_at(loop, 0) == RACE
        assert len(reach.watch) <= 8

    def test_unreachable_targets_have_empty_summaries(self):
        module, targets = _publish_module()
        b = IRBuilder(module)
        orphan_global = b.global_var("orphan_slot", I64, 0)
        b.begin_function("orphan", I32, [], source_file="pub.c")
        orphan = b.store(1, orphan_global, line=90)
        b.ret(b.i32(0), line=91)
        b.end_function()
        reach = reach_analysis(module).for_targets((orphan, orphan))
        main = module.get_function("main")
        assert reach.bits_at(main.entry, 0) == 0
        # nothing can ever be at the pair: a run stops before its first step
        vm = VM(module, scheduler=RandomScheduler(0))
        debugger = Debugger(vm)
        debugger.stop_when_out_of_reach(reach)
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.OUT_OF_REACH
        assert result.steps == 0

    def test_indirect_call_is_unknown(self):
        module, call = _indirect_module()
        racer_store = _store_at(module, 10)
        reach = reach_analysis(module).for_targets((racer_store,
                                                    racer_store))
        worker = module.get_function("worker")
        assert reach.summary[worker] == UNKNOWN
        assert call in reach.watch

    def test_analysis_is_built_once_per_module(self):
        module, targets = _publish_module()
        analysis = reach_analysis(module)
        assert reach_analysis(module) is analysis
        main = module.get_function("main")
        ModulePatcher(module).insert_before(
            main.entry.instructions[0],
            Call(IRBuilder(module).extern("thread_yield"), []))
        rebuilt = reach_analysis(module)
        assert rebuilt is not analysis
        assert reach_analysis(module) is rebuilt


class TestEarlyStop:
    @pytest.mark.parametrize("seed", range(4))
    def test_publish_run_stops_once_the_consumer_leaves_its_loop(self, seed):
        module, targets = _publish_module()
        vm = VM(module, scheduler=RandomScheduler(seed), seed=seed)
        debugger = Debugger(vm)
        for instruction in targets:
            debugger.add_breakpoint(instruction)
        debugger.stop_when_out_of_reach(
            reach_analysis(module).for_targets(targets))
        vm.start("main")
        while True:
            result = vm.run()
            if result.reason != ExecutionResult.BREAKPOINT:
                break
            if not vm.runnable_threads():
                assert debugger.release_one() is not None
        assert result.reason == ExecutionResult.OUT_OF_REACH
        threads = {t.name: t for t in vm.threads.values()}
        consumer = threads["job_consumer_pub"]
        producer = threads["job_producer_pub"]
        assert (consumer.state is ThreadState.FINISHED
                or consumer.top.block.name == "consumed0")
        assert producer.state is ThreadState.HALTED
        assert producer.current_instruction() is targets[0]

    def test_publish_outcome_matches_reference(self):
        module, targets = _publish_module()
        tracer = SpanTracer()
        reference, shipped = _both_modes(module, _report(*targets))
        assert not shipped.verified
        assert _outcome(reference) == _outcome(shipped)
        assert shipped.runs_stopped_early == shipped.runs_used
        assert reference.runs_stopped_early == 0
        assert shipped.vm_steps < reference.vm_steps
        DynamicRaceVerifier(module, seeds=range(2), tracer=tracer).verify(
            _report(*targets))
        attempts = [span for span in tracer.spans
                    if span.name == "verify_attempt"]
        assert [span.attrs["stopped_early"] for span in attempts] == \
            [True, True]
        assert all(span.attrs["stop_step"] > 0 for span in attempts)

    def test_pending_spawn_site_holds_the_run(self):
        module, second_spawn = _two_spawns_module()
        store = _store_at(module, 10)
        passed = False
        for vm, rule in _rule_per_step(module, (store, store)):
            main = vm.threads[1]
            if main.state is not ThreadState.FINISHED:
                before_spawn = (main.top.block is second_spawn.block
                                and main.top.index <= main.top.block
                                .instructions.index(second_spawn))
                if before_spawn:
                    assert not rule
                else:
                    passed = True
            if passed:
                assert rule
        assert passed
        reference, shipped = _both_modes(module, _report(store, store))
        assert _outcome(reference) == _outcome(shipped)
        assert not shipped.verified

    def test_pending_indirect_call_holds_the_run(self):
        module, call = _indirect_module()
        store = _store_at(module, 10)
        checked = 0
        for vm, rule in _rule_per_step(module, (store, store)):
            workers = [t for t in vm._alive if t.name == "worker"]
            if any(t.frames and t.top.function.name == "worker"
                   and t.top.index <= t.top.block.instructions.index(call)
                   for t in workers):
                assert not rule
                checked += 1
        assert checked
        reference, shipped = _both_modes(module, _report(store, store))
        assert _outcome(reference) == _outcome(shipped)
        assert shipped.verified
