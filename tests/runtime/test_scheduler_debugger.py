"""Tests for schedulers and the thread-specific-breakpoint debugger."""

import gc
import random
import weakref

import pytest

from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, ptr
from repro.runtime import (
    Breakpoint,
    Debugger,
    ExecutionResult,
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    VM,
)
from repro.runtime.errors import FaultEvent, FaultKind, RuntimeFault
from repro.runtime.thread import ThreadState
from tests.helpers import build_counter_race


class _FakeThread:
    def __init__(self, thread_id, name="t"):
        self.thread_id = thread_id
        self.name = name


class TestRoundRobin:
    def test_quantum_switching(self):
        scheduler = RoundRobinScheduler(quantum=2)
        threads = [_FakeThread(1), _FakeThread(2)]
        picks = [scheduler.choose(threads, step).thread_id for step in range(6)]
        assert picks == [1, 1, 2, 2, 1, 1]

    def test_skips_missing_thread(self):
        scheduler = RoundRobinScheduler(quantum=1)
        threads = [_FakeThread(1), _FakeThread(2)]
        scheduler.choose(threads, 0)
        picks = [scheduler.choose([_FakeThread(2)], s).thread_id for s in (1, 2)]
        assert picks == [2, 2]

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)

    def test_rotation_continues_past_blocked_thread(self):
        # When the current thread blocks, the rotation must continue from
        # its id, not restart at the lowest one.
        scheduler = RoundRobinScheduler(quantum=1)
        threads = [_FakeThread(1), _FakeThread(2), _FakeThread(3)]
        assert scheduler.choose(threads, 0).thread_id == 1
        assert scheduler.choose(threads, 1).thread_id == 2
        # thread 2 blocks; the next pick must be 3, not back to 1
        assert scheduler.choose([threads[0], threads[2]], 2).thread_id == 3

    def test_no_starvation_with_alternating_runnable_sets(self):
        # A low-id thread that keeps blocking and unblocking must not starve
        # the highest-id thread: runnable alternates {1,3} / {2,3}, so a
        # rotation restarting at the lowest id would pick 1,2,1,2,... forever.
        scheduler = RoundRobinScheduler(quantum=1)
        one, two, three = _FakeThread(1), _FakeThread(2), _FakeThread(3)
        picks = []
        for step in range(12):
            runnable = [one, three] if step % 2 == 0 else [two, three]
            picks.append(scheduler.choose(runnable, step).thread_id)
        assert 3 in picks


class TestRandom:
    def test_deterministic_per_seed(self):
        threads = [_FakeThread(i) for i in range(4)]
        a = RandomScheduler(7)
        b = RandomScheduler(7)
        seq_a = [a.choose(threads, s).thread_id for s in range(50)]
        seq_b = [b.choose(threads, s).thread_id for s in range(50)]
        assert seq_a == seq_b

    def test_different_seeds_differ(self):
        threads = [_FakeThread(i) for i in range(4)]
        seq = lambda seed: [
            RandomScheduler(seed).choose(threads, s).thread_id
            for s in range(30)
        ]
        assert seq(1) != seq(2)

    def test_reset_restores_sequence(self):
        threads = [_FakeThread(i) for i in range(3)]
        scheduler = RandomScheduler(5)
        first = [scheduler.choose(threads, s).thread_id for s in range(20)]
        scheduler.reset()
        second = [scheduler.choose(threads, s).thread_id for s in range(20)]
        assert first == second

    @pytest.mark.parametrize("n", range(1, 17))
    def test_draws_the_randrange_stream(self, n):
        """``choose`` inlines ``randrange``'s rejection loop; a Python
        whose ``randrange`` draws differently must fail here, not shift
        every recorded schedule."""
        threads = [_FakeThread(i) for i in range(n)]
        for seed in range(40):
            scheduler = RandomScheduler(seed)
            reference = random.Random(seed)
            picks = [scheduler.choose(threads, s).thread_id
                     for s in range(50)]
            assert picks == [reference.randrange(n) for _ in range(50)]
            assert scheduler._rng.getstate() == reference.getstate()

    def test_committed_run_consumes_single_thread_draws(self):
        """A run granted to a lone thread that executed ``ran`` of its
        steps leaves the rng where ``ran`` stepwise ``choose`` calls
        would, for every ``ran`` up to the grant."""
        lone = [_FakeThread(0)]
        for seed in range(40):
            ran = 1 + seed % 9
            scheduler = RandomScheduler(seed)
            reference = random.Random(seed)
            scheduler.choose(lone, 0)
            reference.randrange(1)
            assert scheduler.run_length(lone[0], 1, 9) == 9
            assert scheduler._rng.getstate() == reference.getstate()
            scheduler.commit(ran)
            for _ in range(ran - 1):
                reference.randrange(1)
            assert scheduler._rng.getstate() == reference.getstate()


class TestPCT:
    def test_highest_priority_wins_consistently(self):
        threads = [_FakeThread(i) for i in range(3)]
        scheduler = PCTScheduler(seed=3, depth=1)
        picks = {scheduler.choose(threads, s).thread_id for s in range(10)}
        assert len(picks) == 1  # no change points with depth=1

    def test_change_points_demote(self):
        threads = [_FakeThread(i) for i in range(3)]
        scheduler = PCTScheduler(seed=3, depth=4, expected_steps=20)
        picks = [scheduler.choose(threads, s).thread_id for s in range(20)]
        assert len(set(picks)) >= 2  # priority changes switch threads

    def test_exactly_depth_minus_one_distinct_change_points(self):
        # PCT's probability guarantee needs d-1 *distinct* change points;
        # with a small step population, colliding draws are likely for many
        # seeds unless the scheduler redraws them.
        for seed in range(200):
            scheduler = PCTScheduler(seed=seed, depth=5, expected_steps=10)
            assert len(scheduler.change_points) == 4, "seed %d" % seed
            assert all(0 <= p < 10 for p in scheduler.change_points)

    def test_change_points_clamped_to_step_population(self):
        scheduler = PCTScheduler(seed=1, depth=50, expected_steps=10)
        assert len(scheduler.change_points) == 10  # can't exceed the steps

    def test_depth_one_has_no_change_points(self):
        scheduler = PCTScheduler(seed=1, depth=1, expected_steps=10)
        assert scheduler.change_points == frozenset()

    def test_reset_redraws_the_same_points(self):
        scheduler = PCTScheduler(seed=11, depth=6, expected_steps=100)
        first = scheduler.change_points
        scheduler.reset()
        assert scheduler.change_points == first

    def test_initial_priorities_are_distinct(self):
        # PCT's guarantee needs distinct per-thread priorities: a colliding
        # draw would leave the tie to runnable-list order.  Shrink the draw
        # space so collisions are near-certain without the redraw loop.
        for seed in range(50):
            scheduler = PCTScheduler(seed=seed, depth=1)
            scheduler._next_priority = 5
            threads = [_FakeThread(i) for i in range(4)]
            priorities = [scheduler._priority(t) for t in threads]
            assert len(set(priorities)) == 4, "seed %d" % seed

    def test_priorities_stable_across_calls(self):
        scheduler = PCTScheduler(seed=7, depth=1)
        thread = _FakeThread(3)
        assert scheduler._priority(thread) == scheduler._priority(thread)


class TestScripted:
    def test_follows_script(self):
        threads = [_FakeThread(1, "a"), _FakeThread(2, "b")]
        scheduler = ScriptedScheduler([("b", 2), ("a", 1)])
        picks = [scheduler.choose(threads, s).thread_id for s in range(3)]
        assert picks == [2, 2, 1]

    def test_fallback_after_script(self):
        threads = [_FakeThread(1, "a"), _FakeThread(2, "b")]
        scheduler = ScriptedScheduler([("a", 1)],
                                      fallback=RoundRobinScheduler(quantum=1))
        scheduler.choose(threads, 0)
        pick = scheduler.choose(threads, 1)
        assert pick.thread_id in (1, 2)

    def test_waits_on_absent_thread_by_running_others(self):
        threads = [_FakeThread(2, "b")]
        scheduler = ScriptedScheduler([("a", 5)])
        assert scheduler.choose(threads, 0).thread_id == 2

    def test_dead_scripted_thread_skips_segment_after_wait_limit(self):
        # Thread "a" never becomes runnable (it exited for good): after
        # wait_limit waits its segment is abandoned — and recorded — and
        # the script moves on instead of spinning forever.
        threads = [_FakeThread(2, "b")]
        scheduler = ScriptedScheduler([("a", 5), ("b", 2)], wait_limit=3)
        picks = [scheduler.choose(threads, s).thread_id for s in range(5)]
        assert picks == [2] * 5
        assert scheduler.skipped_segments == [(0, "a", 5)]
        # the "b" segment ran normally once "a" was skipped
        assert scheduler._segment >= 1

    def test_wait_counter_resets_when_target_reappears(self):
        a, b = _FakeThread(1, "a"), _FakeThread(2, "b")
        scheduler = ScriptedScheduler([("a", 3)], wait_limit=2)
        scheduler.choose([b], 0)          # wait 1
        scheduler.choose([a, b], 1)       # target back: counter resets
        scheduler.choose([b], 2)          # wait 1 again, not 2
        assert scheduler.skipped_segments == []

    def test_invalid_wait_limit(self):
        with pytest.raises(ValueError):
            ScriptedScheduler([("a", 1)], wait_limit=0)

    def test_reset_clears_skip_state(self):
        threads = [_FakeThread(2, "b")]
        scheduler = ScriptedScheduler([("a", 5)], wait_limit=1)
        scheduler.choose(threads, 0)
        assert scheduler.skipped_segments
        scheduler.reset()
        assert scheduler.skipped_segments == []
        assert scheduler._segment == 0


class _CreationTrackingScheduler(RoundRobinScheduler):
    """A stateful fallback that must learn about every thread creation."""

    def __init__(self):
        super().__init__(quantum=1)
        self.created = []

    def on_thread_created(self, thread):
        self.created.append(thread.thread_id)


class TestFallbackThreadCreation:
    """Wrapper schedulers must forward thread creation to their fallback.

    A fallback that keys state on thread ids (priorities, per-thread
    quanta) would otherwise take over after the script/trace ends without
    ever having seen the threads it now schedules.
    """

    def test_scripted_forwards_to_fallback(self):
        fallback = _CreationTrackingScheduler()
        scheduler = ScriptedScheduler([("a", 1)], fallback=fallback)
        scheduler.on_thread_created(_FakeThread(4, "a"))
        scheduler.on_thread_created(_FakeThread(7, "b"))
        assert fallback.created == [4, 7]

    def test_replay_forwards_to_fallback(self):
        from repro.runtime.scheduler import ReplayScheduler

        fallback = _CreationTrackingScheduler()
        scheduler = ReplayScheduler([1, 1, 2], fallback=fallback)
        scheduler.on_thread_created(_FakeThread(2))
        assert fallback.created == [2]

    def test_replay_fallback_sees_threads_spawned_mid_trace(self):
        """End to end: threads created while the trace is still replaying
        are visible to the fallback that finishes the run."""
        from repro.runtime.scheduler import (
            RecordingScheduler, ReplayScheduler,
        )

        module = build_counter_race(iterations=3)
        recorder = RecordingScheduler(RandomScheduler(2))
        vm = VM(module, scheduler=recorder)
        vm.start("main")
        vm.run()

        fallback = _CreationTrackingScheduler()
        # replay only half the trace; the fallback finishes the run and
        # must already know every spawned thread
        replayer = ReplayScheduler(recorder.trace[:len(recorder.trace) // 2],
                                   fallback=fallback)
        vm2 = VM(module, scheduler=replayer)
        vm2.start("main")
        result = vm2.run()
        assert result.reason == "finished"
        assert len(fallback.created) >= 3  # main + two workers


def _debug_session():
    module = build_counter_race(iterations=3)
    vm = VM(module, scheduler=RandomScheduler(1))
    debugger = Debugger(vm)
    load = module.find_instructions(filename="counter.c", line=13,
                                    opcode="load")[0]
    store = module.find_instructions(filename="counter.c", line=13,
                                     opcode="store")[0]
    return module, vm, debugger, load, store


class TestDebugger:
    def test_breakpoint_halts_thread(self):
        module, vm, debugger, load, _ = _debug_session()
        debugger.add_breakpoint(load)
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.BREAKPOINT
        halted = debugger.halted_threads()
        assert len(halted) == 1
        assert halted[0].current_instruction() is load

    def test_other_threads_keep_running(self):
        module, vm, debugger, load, _ = _debug_session()
        debugger.add_breakpoint(load)
        vm.start("main")
        vm.run()
        first = debugger.halted_threads()[0]
        result = vm.run()  # the second worker reaches the same breakpoint
        assert result.reason == ExecutionResult.BREAKPOINT
        assert len(debugger.halted_threads()) == 2
        assert first in debugger.halted_threads()

    def test_thread_filter(self):
        module, vm, debugger, load, _ = _debug_session()
        debugger.add_breakpoint(load, thread_filter=2)
        vm.start("main")
        result = vm.run()
        if result.reason == ExecutionResult.BREAKPOINT:
            assert debugger.halted_threads()[0].thread_id == 2

    def test_resume_steps_past(self):
        module, vm, debugger, load, _ = _debug_session()
        debugger.add_breakpoint(load)
        vm.start("main")
        vm.run()
        thread = debugger.halted_threads()[0]
        debugger.resume(thread, step_past=True)
        assert thread.state == ThreadState.RUNNABLE
        result = vm.run()  # hits the breakpoint again on the next iteration
        assert result.reason in (ExecutionResult.BREAKPOINT,
                                 ExecutionResult.FINISHED)

    def test_pending_access_reports_address_and_value(self):
        module, vm, debugger, load, store = _debug_session()
        debugger.add_breakpoint(store)
        vm.start("main")
        vm.run()
        thread = debugger.halted_threads()[0]
        pending = debugger.pending_access(thread)
        assert pending is not None
        assert pending.is_write
        assert pending.address == vm.global_address("counter")
        assert pending.value == 1  # first increment writes 1

    def test_pending_access_without_a_readable_operand_is_none(self):
        module, vm, debugger, load, store = _debug_session()
        debugger.add_breakpoint(store)
        vm.start("main")
        vm.run()
        thread = debugger.halted_threads()[0]

        def undefined(frame, operand):
            raise RuntimeFault(FaultEvent(FaultKind.WILD_ACCESS, -1,
                                          "use of undefined value"))

        vm.evaluate = undefined
        assert debugger.pending_access(thread) is None

    def test_pending_access_lets_other_errors_through(self):
        module, vm, debugger, load, store = _debug_session()
        debugger.add_breakpoint(store)
        vm.start("main")
        vm.run()
        thread = debugger.halted_threads()[0]

        def broken(frame, operand):
            raise KeyError(operand)

        vm.evaluate = broken
        with pytest.raises(KeyError):
            debugger.pending_access(thread)

    def test_detach_breaks_the_vm_debugger_cycle(self):
        module, vm, debugger, load, _ = _debug_session()
        debugger.add_breakpoint(load)
        vm.start("main")
        vm.run()
        debugger.detach()
        assert vm.debugger is None
        assert debugger.halted_threads()
        ref = weakref.ref(vm)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del vm, debugger
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_release_one_resolves_livelock(self):
        module, vm, debugger, load, store = _debug_session()
        debugger.add_breakpoint(load)
        debugger.add_breakpoint(store)
        vm.start("main")
        # run until all progress requires halted threads
        for _ in range(50):
            result = vm.run()
            if result.reason != ExecutionResult.BREAKPOINT:
                break
            if not vm.runnable_threads():
                released = debugger.release_one()
                assert released is not None
        assert result.reason == ExecutionResult.FINISHED

    def test_disabled_breakpoint_ignored(self):
        module, vm, debugger, load, _ = _debug_session()
        bp = debugger.add_breakpoint(load)
        bp.enabled = False
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.FINISHED

    def test_remove_breakpoint(self):
        module, vm, debugger, load, _ = _debug_session()
        bp = debugger.add_breakpoint(load)
        debugger.remove_breakpoint(bp)
        vm.start("main")
        assert vm.run().reason == ExecutionResult.FINISHED

    def test_peek_memory(self):
        module, vm, debugger, load, _ = _debug_session()
        address = vm.global_address("counter")
        assert debugger.peek_memory(address, 8) == 0
        assert debugger.peek_memory(0xDEAD, 8) is None
