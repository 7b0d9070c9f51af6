"""Fusion soundness: grant/commit contracts, fused/stepwise parity, fixes.

Seven layers:

- unit tests for the two VM bugfixes (``_handle_idle`` clamping the sleeper
  fast-forward to the step budget; ``step_thread`` resetting ``blocked_arg``
  together with ``blocked_kind``),
- unit tests for every scheduler's ``run_length`` grant and ``commit``,
  for every count of granted steps a run may execute, including the
  RandomScheduler's entropy-parity semantics,
- unit tests for :class:`repro.runtime.fuse.FuseEngine` (hotness, plan
  caching, invalidation, attach signature validation, counters),
- the engine rules: one engine per module, rebuilt after a patch; plans
  sharing ops; plans only where the scheduler can commit a run; no
  VM kept alive by the engine,
- loop traces: equal event streams, schedules and scheduler state under
  round-robin, random and PCT for loops that exit mid-grant, grants that
  end mid-iteration, sleepers waking inside a loop run, faults in a
  later iteration and the step budget ending a run,
- fixed points: read-only loop traces that skip to the end of their
  grant run exactly as stepwise (random loops under the three
  schedulers); loops with a store, an alloca, a cast or a fault on every
  iteration, and observers that do not take repeats, skip nothing, and
- hypothesis differential tests pinning ``_run_fast_loop`` ≡
  ``_run_reference_loop`` ≡ fused execution across blocked/sleeper/halted
  transitions and fused-block boundaries (fault bailout mid-run, memo
  invalidation between runs, ``run_length`` shrinking at change points).
"""

import copy
import gc
import weakref
from contextlib import nullcontext
from types import SimpleNamespace
from typing import NamedTuple, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import IRBuilder, Module, verify_module
from repro.ir.instructions import Call, ICmp, Instruction, Load
from repro.ir.patch import ModulePatcher
from repro.ir.types import I32, I64, I8, VOID, ArrayType, ptr
from repro.ir.values import Value
from repro.runtime.diffcheck import TraceRecorder, _normalize_fault
from repro.runtime.errors import FaultKind
from repro.runtime.fuse import FUSIBLE, FuseEngine, fuse_engine
from repro.runtime.interpreter import (
    VM,
    ExecutionResult,
    reference_execution,
    stepwise_execution,
)
from repro.runtime.scheduler import (
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
)
from repro.runtime.thread import ThreadState
from tests.helpers import build_adhoc_sync_module, build_counter_race


# ----------------------------------------------------------------------
# workload modules

def build_sleep_forever(delay: int = 1_000_000) -> Module:
    """main usleeps far beyond any step budget."""
    b = IRBuilder(Module("sleeper"))
    b.begin_function("main", I32, [], source_file="s.c")
    b.call("usleep", [delay], line=1)
    b.ret(b.i32(0), line=2)
    b.end_function()
    verify_module(b.module)
    return b.module


def build_sleeper_contention(iterations: int = 3) -> Module:
    """Two workers taking a mutex and sleeping while holding it.

    Exercises every transition the fast loop optimizes: mutex blocking
    (parsed block reason), sleeping (wake_step), unblock ordering, plus
    straight-line fusible runs between the calls.
    """
    module = Module("contention")
    b = IRBuilder(module)
    counter = b.global_var("counter", I64, 0)
    lock = b.global_var("lock", I64, 0)
    b.set_location("c.c", 1)
    b.begin_function("worker", I32, [("arg", ptr(I8))], source_file="c.c")
    i = b.local(I64, "i", 0, line=10)
    b.br("cond", line=10)
    b.at("cond")
    iv = b.load(i, line=11)
    more = b.icmp("slt", iv, iterations, line=11)
    b.cond_br(more, "body", "done", line=11)
    b.at("body")
    b.call("mutex_lock", [b.cast("bitcast", lock, ptr(I8), line=12)], line=12)
    value = b.load(counter, line=13)
    b.store(b.add(value, 1, line=13), counter, line=13)
    b.call("usleep", [7], line=14)
    b.call("mutex_unlock", [b.cast("bitcast", lock, ptr(I8), line=15)],
           line=15)
    b.store(b.add(iv, 1, line=16), i, line=16)
    b.br("cond", line=16)
    b.at("done")
    b.ret(b.i32(0), line=17)
    b.end_function()
    b.begin_function("main", I32, [], source_file="c.c")
    worker = module.get_function("worker")
    t1 = b.call("thread_create", [worker, b.null()], line=20)
    t2 = b.call("thread_create", [worker, b.null()], line=21)
    b.call("thread_join", [t1], line=22)
    b.call("thread_join", [t2], line=23)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(module)
    return module


def build_divider(start: int = 3) -> Module:
    """A fusible loop that divides by a decrementing global.

    The loop body is pure load/arith/store — after two iterations the
    fuse engine compiles it — and on the iteration where the divisor
    reaches zero the sdiv faults *mid fused run*, exercising the bailout
    path (fault recorded at the exact step, observers notified once).
    """
    module = Module("divider")
    b = IRBuilder(module)
    divisor = b.global_var("divisor", I64, start)
    out = b.global_var("out", I64, 0)
    b.set_location("d.c", 1)
    b.begin_function("main", I32, [], source_file="d.c")
    b.br("cond", line=9)
    b.at("cond")
    d = b.load(divisor, line=10)
    q = b.binop("sdiv", b.i64(100), d, line=11)
    o = b.load(out, line=12)
    b.store(b.add(o, q, line=12), out, line=12)
    b.store(b.sub(d, 1, line=13), divisor, line=13)
    b.br("cond", line=14)
    b.end_function()
    verify_module(module)
    return module


def build_count_loop(iterations: int = 40) -> Module:
    """main counts a global up to ``iterations`` in a two-block loop.

    The ``cond`` header tests the index and branches to ``body`` or
    ``done``; ``body`` bumps the counter and the index and jumps back to
    ``cond``.  The plan entering ``body`` crosses into ``cond`` and ends
    at its branch, which can return to ``body``: a loop trace spanning
    two blocks, which leaves once the index reaches ``iterations``.
    """
    module = Module("count_loop")
    b = IRBuilder(module)
    count = b.global_var("count", I64, 0)
    index = b.global_var("index", I64, 0)
    b.begin_function("main", I32, [], source_file="n.c")
    b.br("cond", line=1)
    b.at("cond")
    i = b.load(index, line=2)
    more = b.icmp("slt", i, iterations, line=2)
    b.cond_br(more, "body", "done", line=2)
    b.at("body")
    value = b.load(count, line=3)
    b.store(b.add(value, 3, line=3), count, line=3)
    b.store(b.add(i, 1, line=4), index, line=4)
    b.br("cond", line=4)
    b.at("done")
    b.ret(b.i32(0), line=5)
    b.end_function()
    verify_module(module)
    return module


def build_spin_wait(delay: int = 60) -> Module:
    """A waiter spinning on a flag that a sleeping setter raises.

    The waiter's ``spin`` block — load, compare, branch back to itself —
    is the section 5.1 busy-wait and compiles to a loop trace.  The setter
    first sleeps ``delay`` steps, so the spinner runs alone (even the
    random scheduler grants it runs) until the setter wakes in the middle
    of one.
    """
    module = Module("spin_wait")
    b = IRBuilder(module)
    flag = b.global_var("flag", I32, 0)
    b.begin_function("setter", I32, [("arg", ptr(I8))], source_file="w.c")
    b.call("usleep", [delay], line=1)
    b.store(1, flag, line=2)
    b.ret(b.i32(0), line=3)
    b.end_function()
    b.begin_function("waiter", I32, [("arg", ptr(I8))], source_file="w.c")
    b.br("spin", line=10)
    b.at("spin")
    value = b.load(flag, line=11)
    done = b.icmp("ne", value, 0, line=11)
    b.cond_br(done, "after", "spin", line=11)
    b.at("after")
    b.ret(b.i32(0), line=12)
    b.end_function()
    b.begin_function("main", I32, [], source_file="w.c")
    handles = [b.call("thread_create", [module.get_function(name), b.null()],
                      line=20 + offset)
               for offset, name in enumerate(("setter", "waiter"))]
    for offset, handle in enumerate(handles):
        b.call("thread_join", [handle], line=22 + offset)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(module)
    return module


MODULE_BUILDERS = {
    "counter_race": lambda: build_counter_race(iterations=4),
    "counter_locked": lambda: build_counter_race(iterations=3,
                                                 with_lock=True),
    "adhoc": build_adhoc_sync_module,
    "contention": build_sleeper_contention,
}


def make_scheduler(kind: str, seed: int):
    if kind == "random":
        return RandomScheduler(seed)
    if kind == "round_robin":
        return RoundRobinScheduler(quantum=1 + seed % 7)
    return PCTScheduler(seed=seed, depth=3, expected_steps=500)


def run_fingerprint(module: Module, scheduler, reference: bool = False,
                    fuse: bool = False, max_steps: int = 50_000,
                    **options):
    """Everything observable about one run, in comparable form.

    ``fuse=False`` runs under :func:`stepwise_execution`; ``fuse=True``
    runs as shipped, through the module's fuse engine (the trace
    recorder accepts repeats, so read-only loops may skip).  ``options``
    go to the VM.
    """
    with nullcontext() if fuse else stepwise_execution():
        vm = VM(module, scheduler=scheduler, max_steps=max_steps,
                reference=reference, **options)
    recorder = TraceRecorder()
    vm.add_observer(recorder)
    vm.start("main")
    result = vm.run()
    return {
        "events": recorder.records,
        "faults": [_normalize_fault(f) for f in vm.faults],
        "recorded": [_normalize_fault(f) for f in vm.memory.recorded_faults],
        "reason": result.reason,
        "steps": result.steps,
        "per_thread": {t.thread_id: t.steps_executed
                       for t in vm.threads.values()},
    }


# ----------------------------------------------------------------------
# bugfix 1: _handle_idle sleeper fast-forward clamped to the budget

class TestHandleIdleClamp:
    @pytest.mark.parametrize("reference", [False, True])
    def test_sleep_beyond_budget_parks_at_limit(self, reference):
        vm = VM(build_sleep_forever(), scheduler=RoundRobinScheduler(),
                max_steps=25, reference=reference)
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.STEP_LIMIT
        # the clamp: the clock parks exactly at the budget instead of
        # jumping to the wake step (step 1 + 1_000_000)
        assert vm.step == 25

    @pytest.mark.parametrize("reference", [False, True])
    def test_resumed_run_never_overshoots_global_budget(self, reference):
        vm = VM(build_sleep_forever(delay=100), scheduler=RoundRobinScheduler(),
                max_steps=40, reference=reference)
        vm.start("main")
        first = vm.run(max_steps=10)
        assert first.reason == ExecutionResult.STEP_LIMIT
        assert vm.step == 10
        second = vm.run()  # up to the global budget
        assert second.reason == ExecutionResult.STEP_LIMIT
        assert vm.step == 40

    def test_both_loops_agree_on_short_sleep(self):
        runs = {}
        for reference in (False, True):
            vm = VM(build_sleep_forever(delay=30),
                    scheduler=RoundRobinScheduler(), max_steps=500,
                    reference=reference)
            vm.start("main")
            result = vm.run()
            runs[reference] = (result.reason, result.steps, vm.step)
        assert runs[False] == runs[True]


# ----------------------------------------------------------------------
# bugfix 2: blocked_arg reset together with blocked_kind

class TestBlockedArgReset:
    def test_unparsed_reason_clears_stale_mutex_fields(self):
        vm = VM(build_sleep_forever(delay=50),
                scheduler=RoundRobinScheduler(), max_steps=1000)
        thread = vm.start("main")
        # Simulate a thread that previously blocked on a mutex: the next
        # block (usleep — an unparsed reason) must not keep these.
        thread.blocked_kind = "mutex"
        thread.blocked_arg = 0xDEAD
        vm.step_thread(thread)  # executes the usleep call -> Block
        assert thread.blocked_on == "usleep"
        assert thread.wake_step is not None
        assert thread.blocked_kind is None
        assert thread.blocked_arg == 0

    def test_fast_loop_never_misreads_stale_mutex_address(self):
        # End to end: workers alternate mutex blocks and sleeps; if the
        # fast loop ever treated a sleeping thread as a mutex waiter on a
        # stale address it would unblock early and diverge from the
        # reference loop below.
        module = build_sleeper_contention()
        baseline = run_fingerprint(module, RandomScheduler(3),
                                   reference=True)
        fast = run_fingerprint(module, RandomScheduler(3))
        assert fast == baseline


# ----------------------------------------------------------------------
# run_length contracts

def _threads(n: int):
    return [SimpleNamespace(thread_id=i + 1, name="t%d" % (i + 1))
            for i in range(n)]


def _scheduler_state(scheduler) -> dict:
    """Everything a scheduler's future decisions depend on."""
    state = dict(vars(scheduler))
    rng = state.pop("_rng", None)
    if rng is not None:
        state["_rng"] = rng.getstate()
    return state


def _fused_decisions(scheduler, runnable, windows, ran):
    """Drive ``scheduler`` as a fusing VM does: after each ``choose``,
    ask for a grant of up to ``max_len`` steps, run ``ran(grant)`` of them
    and commit those.  Returns the chosen thread id of every step."""
    expanded = []
    step = 0
    for max_len in windows:
        chosen = scheduler.choose(runnable, step)
        state = _scheduler_state(scheduler)
        grant = scheduler.run_length(chosen, step, max_len)
        assert 1 <= grant <= max_len
        assert _scheduler_state(scheduler) == state  # a pure query
        steps = ran(grant)
        assert 1 <= steps <= grant
        if grant > 1:
            scheduler.commit(steps)
        expanded.extend([chosen.thread_id] * steps)
        step += steps
    return expanded


class TestRunLengthContract:
    """run_length(thread, step, k) grants a run: the next k-1 chooses
    would return the same thread.  commit(steps) then advances state
    exactly as the steps-1 chooses after the first would, for any count
    the run executed up to the grant (a loop trace may exit early)."""

    @given(st.sampled_from(["random", "round_robin", "pct"]),
           st.integers(0, 1000), st.integers(1, 3),
           st.lists(st.integers(2, 9), min_size=1, max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fused_decisions_equal_stepwise(self, kind, seed, n, windows,
                                            data):
        runnable = _threads(n)
        stepwise = make_scheduler(kind, seed)
        fused = make_scheduler(kind, seed)
        expanded = _fused_decisions(
            fused, runnable, windows,
            lambda grant: data.draw(st.integers(1, grant)))
        # stepwise driver: one choose per decision
        reference = [stepwise.choose(runnable, s).thread_id
                     for s in range(len(expanded))]
        assert expanded == reference
        assert _scheduler_state(fused) == _scheduler_state(stepwise)

    def test_round_robin_commits_quantum(self):
        for ran in range(1, 4):  # every count a run may execute
            scheduler = RoundRobinScheduler(quantum=5)
            runnable = _threads(2)
            first = scheduler.choose(runnable, 0)
            assert scheduler.run_length(first, 0, 3) == 3
            assert scheduler._remaining == 4  # the grant commits nothing
            scheduler.commit(ran)
            # ran - 1 of the remaining 4 quantum steps were committed
            assert scheduler._remaining == 4 - (ran - 1)
            for step in range(ran, 5):
                assert scheduler.choose(runnable, step) is first
            # quantum exhausted: the rotation moves on
            assert scheduler.choose(runnable, 5) is not first

    def test_round_robin_caps_at_window(self):
        scheduler = RoundRobinScheduler(quantum=50)
        runnable = _threads(2)
        chosen = scheduler.choose(runnable, 0)
        assert scheduler.run_length(chosen, 0, 4) == 4

    @given(st.integers(0, 10_000), st.integers(1, 3),
           st.lists(st.integers(2, 9), min_size=1, max_size=20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_entropy_parity(self, seed, n, windows, data):
        """After the same number of decisions, the rng streams agree —
        the schedule stays bit-identical past any fused region."""
        runnable = _threads(n)
        stepwise = RandomScheduler(seed)
        fused = RandomScheduler(seed)
        decisions = len(_fused_decisions(
            fused, runnable, windows,
            lambda grant: data.draw(st.integers(1, grant))))
        for s in range(decisions):
            stepwise.choose(runnable, s)
        assert fused._rng.getstate() == stepwise._rng.getstate()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_commits_only_a_lone_thread(self, n):
        scheduler = RandomScheduler(0)
        chosen = scheduler.choose(_threads(n), 0)
        assert not scheduler.can_commit(0)
        state = scheduler._rng.getstate()
        assert scheduler.run_length(chosen, 0, 50) == 1
        assert scheduler._rng.getstate() == state  # committed nothing
        chosen = scheduler.choose(_threads(1), 1)
        assert scheduler.can_commit(1)
        assert scheduler.run_length(chosen, 1, 50) == 50

    @pytest.mark.parametrize("make", [
        lambda: RoundRobinScheduler(quantum=4),
        lambda: PCTScheduler(seed=5, depth=4, expected_steps=40),
        lambda: RandomScheduler(3),
    ], ids=["round_robin", "pct", "random"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_can_commit_matches_run_length(self, make, n):
        """The gate says yes exactly where run_length would grant 2+."""
        runnable = _threads(n)
        scheduler = make()
        for step in range(60):
            chosen = scheduler.choose(runnable, step)
            probe = copy.deepcopy(scheduler)
            granted = probe.run_length(chosen, step, 2)
            assert scheduler.can_commit(step) == (granted == 2)

    def test_random_single_thread_consumes_entropy(self):
        runnable = _threads(1)
        for ran in range(1, 7):  # every count a run may execute
            fused = RandomScheduler(11)
            stepwise = RandomScheduler(11)
            chosen = fused.choose(runnable, 0)
            state = fused._rng.getstate()
            assert fused.run_length(chosen, 0, 6) == 6
            assert fused._rng.getstate() == state  # the grant draws nothing
            fused.commit(ran)
            for s in range(ran):
                stepwise.choose(runnable, s)
            assert fused._rng.getstate() == stepwise._rng.getstate()

    def test_pct_stops_at_change_point_without_mutation(self):
        scheduler = PCTScheduler(seed=5, depth=3, expected_steps=100)
        runnable = _threads(2)
        chosen = scheduler.choose(runnable, 0)
        point = min(p for p in scheduler.change_points if p > 0)
        priorities = dict(scheduler._priorities)
        length = scheduler.run_length(chosen, 0, point + 40)
        assert length == point  # steps 1..point-1 are safe, point is not
        assert scheduler._priorities == priorities

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 2500),
           st.integers(0, 3000), st.integers(0, 4000))
    @settings(max_examples=80, deadline=None)
    def test_pct_grant_equals_the_step_walk(self, seed, depth, expected,
                                            step, max_len):
        """The O(depth) grant is the walk to the next change point."""
        scheduler = PCTScheduler(seed=seed, depth=depth,
                                 expected_steps=expected)
        points = scheduler.change_points
        walk = 1
        while walk < max_len and (step + walk) not in points:
            walk += 1
        assert scheduler.run_length(None, step, max_len) == walk

    def test_wrapper_schedulers_refuse_fusion(self):
        runnable = _threads(2)
        for scheduler in (
            ScriptedScheduler([(1, 5)]),
            RecordingScheduler(RandomScheduler(0)),
            ReplayScheduler([1, 1, 2]),
        ):
            assert not scheduler.commits_runs
            chosen = scheduler.choose(runnable, 0)
            assert not scheduler.can_commit(0)
            assert scheduler.run_length(chosen, 0, 50) == 1


# ----------------------------------------------------------------------
# FuseEngine

class TestFuseEngine:
    def _vm(self, module=None):
        vm = VM(module or build_counter_race(iterations=4),
                scheduler=RoundRobinScheduler(), max_steps=10_000)
        return vm

    def test_vm_attaches_engine(self):
        vm = self._vm()
        assert isinstance(vm.fuse_engine, FuseEngine)
        assert vm.fuse_engine is vm.module.fuse_engine

    def test_reference_mode_disables_fusion(self):
        vm = VM(build_counter_race(), scheduler=RoundRobinScheduler(),
                max_steps=10_000, reference=True)
        assert vm.fuse_engine is None

    def test_stepwise_mode_disables_fusion(self):
        with stepwise_execution():
            vm = self._vm()
        assert not vm.fuses
        vm.start("main")
        vm.run()
        engine = vm.fuse_engine
        assert engine.ops  # ops run, one step at a time
        assert engine._plans == {} and engine._heat == {}
        assert engine.fused_runs == 0

    def test_sites_warm_before_compiling(self):
        vm = self._vm(build_divider())
        engine = vm.fuse_engine
        thread = vm.start("main")  # entry block: unconditional br -> loop
        assert engine.plan_for(vm, thread) is None  # first sight: cold
        plan = engine.plan_for(vm, thread)  # second sight: compiled
        assert plan is not None and plan.length >= 2
        assert engine.compiled == 1
        assert engine.plan_for(vm, thread) is plan  # cached

    def test_unfusible_site_cached_as_none(self):
        # counter_race main starts with thread_create calls: never fusible
        vm = self._vm()
        engine = vm.fuse_engine
        thread = vm.start("main")
        engine.plan_for(vm, thread)
        engine.plan_for(vm, thread)
        key = (thread.top.block, thread.top.index)
        assert engine._plans[key] is None
        assert engine.compiled == 0

    def test_invalidate_drops_plans_and_counts(self):
        vm = self._vm()
        engine = vm.fuse_engine
        vm.start("main")
        vm.run()
        assert engine.compiled > 0
        engine.invalidate()
        assert engine._plans == {} and engine._heat == {}
        assert engine.invalidations == 1

    def test_attach_foreign_layout_invalidates(self):
        module = build_counter_race(iterations=4)
        engine = FuseEngine(module)
        engine.attach(self._vm(module))
        # a module with different globals -> different address layout
        engine.attach(self._vm(build_sleeper_contention()))
        assert engine.invalidations == 1

    def test_shared_engine_amortizes_across_vms(self):
        module = build_counter_race(iterations=4)
        for _ in range(2):
            vm = VM(module, scheduler=RoundRobinScheduler(),
                    max_steps=10_000)
            vm.start("main")
            vm.run()
        engine = module.fuse_engine
        assert engine.invalidations == 0
        first_sweep_compiles = engine.compiled
        vm = VM(module, scheduler=RoundRobinScheduler(), max_steps=10_000)
        assert vm.fuse_engine is engine
        vm.start("main")
        vm.run()
        assert engine.compiled == first_sweep_compiles  # all plans reused

    def test_counters_shape(self):
        vm = self._vm()
        vm.start("main")
        vm.run()
        counters = vm.fuse_engine.counters()
        assert set(counters) == {"compiled", "fused_runs", "fused_steps",
                                 "skipped_steps", "bailouts", "invalidations"}
        assert counters["fused_steps"] >= counters["fused_runs"] >= 1
        assert 0 <= counters["skipped_steps"] <= counters["fused_steps"]


# ----------------------------------------------------------------------
# the engine rules


def _fusible_instructions(module: Module):
    return [instruction for instruction in module.instructions()
            if isinstance(instruction, FUSIBLE)]


class TestEngineRules:
    def test_one_engine_per_module(self):
        module = build_counter_race(iterations=4)
        engine = fuse_engine(module)
        assert fuse_engine(module) is engine
        for scheduler in (RoundRobinScheduler(), RandomScheduler(1),
                          PCTScheduler(seed=1)):
            assert VM(module, scheduler=scheduler).fuse_engine is engine

    def test_engine_rebuilt_after_a_patch(self):
        module = build_counter_race(iterations=4)
        engine = VM(module, scheduler=RoundRobinScheduler()).fuse_engine
        main = module.get_function("main")
        ModulePatcher(module).insert_before(
            main.entry.instructions[0],
            Call(IRBuilder(module).extern("thread_yield"), []))
        rebuilt = VM(module, scheduler=RoundRobinScheduler()).fuse_engine
        assert rebuilt is not engine
        assert module.fuse_engine is rebuilt
        assert rebuilt.version == module.version()

    def test_engine_rebuilt_after_revert_and_a_new_patch(self):
        """Reverting a patch and applying another of the same size must
        not hand the second patch the first one's plans."""
        from repro.ir.instructions import Store
        from repro.ir.values import ConstantInt

        module = build_divider(start=40)
        loop = module.get_function("main").get_block("cond")
        out = module.get_global("out")
        runs = []
        for value in (1000, 2000):
            patcher = ModulePatcher(module)
            patcher.insert_before(loop.instructions[-1],
                                  Store(ConstantInt(I64, value), out))
            stepwise = run_fingerprint(module, RoundRobinScheduler())
            fused = run_fingerprint(module, RoundRobinScheduler(),
                                    fuse=True)
            assert module.fuse_engine.fused_steps > 0
            runs.append((stepwise, fused))
            patcher.revert()
        for stepwise, fused in runs:
            assert fused == stepwise
        assert runs[0][1] != runs[1][1]

    def test_plans_at_two_offsets_share_ops(self):
        module = build_divider()
        vm = VM(module, scheduler=RoundRobinScheduler())
        engine = vm.fuse_engine
        block = module.get_function("main").get_block("cond")
        whole = engine._compile(vm, block, 0)
        tail = engine._compile(vm, block, 1)
        assert whole.length == tail.length + 1
        assert all(a is b for a, b in zip(whole.ops[1:], tail.ops))

    def test_compiled_ops_bounded_by_fusible_instructions(self):
        module = build_sleeper_contention()
        for seed in range(8):
            for scheduler in (RoundRobinScheduler(quantum=1 + seed),
                              PCTScheduler(seed=seed, expected_steps=200)):
                vm = VM(module, scheduler=scheduler, max_steps=10_000)
                vm.start("main")
                vm.run()
        engine = module.fuse_engine
        fusible = _fusible_instructions(module)
        compiled = [engine.ops[instruction] for instruction in fusible
                    if instruction in engine.ops]
        plans = [plan for plan in engine._plans.values() if plan is not None]
        assert ({id(op) for plan in plans for op in plan.ops}
                <= {id(op) for op in compiled})
        # plans entering blocks mid-way reuse the ops instead of copying
        assert sum(plan.length for plan in plans) > len(compiled)

    def test_no_engine_under_wrapper_schedulers(self):
        from repro.detectors.predict import _DecisionTracker
        from repro.runtime.coverage import SwitchTracker
        from repro.runtime.profiler import SamplingProfiler
        from repro.runtime.record import ScheduleRecorder

        module = build_counter_race(iterations=4)
        for scheduler in (
            ScriptedScheduler([(1, 5)]),
            RecordingScheduler(RandomScheduler(0)),
            ReplayScheduler([1, 1, 2]),
            ScheduleRecorder(RoundRobinScheduler()),
            _DecisionTracker(ReplayScheduler([1, 2])),
            SwitchTracker(RoundRobinScheduler()),
            SamplingProfiler(PCTScheduler(seed=0), interval=7),
        ):
            vm = VM(module, scheduler=scheduler, max_steps=10_000)
            assert not vm.fuses
            vm.start("main")
            vm.run()
        engine = module.fuse_engine
        assert engine.ops  # ops run, one step at a time
        assert engine._plans == {} and engine._heat == {}
        assert engine.fused_runs == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_looks_up_plans_only_for_a_lone_thread(self, seed):
        module = build_counter_race(iterations=30)
        vm = VM(module, scheduler=RandomScheduler(seed), max_steps=10_000)
        engine = vm.fuse_engine
        runnable_at_lookup = []
        plan_for = engine.plan_for

        def spy(vm, thread):
            runnable_at_lookup.append(sum(
                1 for other in vm.threads.values()
                if other.state == ThreadState.RUNNABLE))
            return plan_for(vm, thread)

        engine.plan_for = spy
        vm.start("main")
        vm.run()
        assert runnable_at_lookup
        assert set(runnable_at_lookup) == {1}

    def test_dropped_vm_is_collected(self):
        module = build_counter_race(iterations=4)
        vm = VM(module, scheduler=RoundRobinScheduler())
        vm.start("main")
        vm.run()
        engine = module.fuse_engine
        assert engine.fused_steps > 0
        dropped = weakref.ref(vm)
        del vm
        gc.collect()
        assert dropped() is None
        assert module.fuse_engine is engine


# ----------------------------------------------------------------------
# compiled ops on every non-reference step


class _Fence(Instruction):
    """An instruction class neither the ops nor the reference path know."""

    opcode = "fence"

    def __init__(self):
        super().__init__(VOID, [])


def _faulting_module(kind: str) -> Module:
    """main stores to @g, then faults on its second instruction.

    ``operand``: the stored value is an operand kind ``VM.evaluate``
    rejects; ``undefined``: it is a register no frame ever defines;
    ``instruction``: a :class:`_Fence` comes first; ``load``, ``store``,
    ``atomicrmw``: that access goes through a NULL pointer.
    """
    b = IRBuilder(Module("fault_%s" % kind))
    g = b.global_var("g", I64, 0)
    b.begin_function("main", I32, [], source_file="bad.c")
    b.store(1, g, line=1)
    if kind == "load":
        b.load(b.null(I64), line=2)
    elif kind == "atomicrmw":
        b.atomicrmw("add", b.null(I64), 1, line=2)
    else:
        store = b.store(2, b.null(I64) if kind == "store" else g, line=2)
    b.ret(b.i32(0), line=3)
    b.end_function()
    if kind == "operand":
        store.operands[0] = Value(I64, "ghost")
    elif kind == "undefined":
        store.operands[0] = Load(g, name="never_run")
    elif kind == "instruction":
        block = store.block
        fence = _Fence()
        fence.block = block
        fence.location = store.location
        block.instructions.insert(block.instructions.index(store), fence)
    return b.module


#: each _faulting_module kind's fault: kind and message
_FAULTS = {
    "operand": (FaultKind.WILD_ACCESS,
                "unsupported operand <Value i64 %ghost>"),
    "undefined": (FaultKind.WILD_ACCESS, "use of undefined value %never_run"),
    "instruction": (FaultKind.WILD_ACCESS, "unsupported instruction fence"),
    "load": (FaultKind.NULL_DEREF, "NULL pointer dereference (read)"),
    "store": (FaultKind.NULL_DEREF, "NULL pointer dereference (write)"),
    "atomicrmw": (FaultKind.NULL_DEREF, "NULL pointer dereference (write)"),
}


class TestOpsOnEveryStep:
    def test_reference_vms_compile_no_op(self):
        module = build_counter_race(iterations=4)
        for scheduler in (RoundRobinScheduler(), ScriptedScheduler([(1, 5)])):
            vm = VM(module, scheduler=scheduler, max_steps=10_000,
                    reference=True)
            assert vm.fuse_engine is None and not vm.fuses
            vm.start("main")
            vm.run()
        with reference_execution():
            vm = VM(module, scheduler=RandomScheduler(0), max_steps=10_000)
        vm.start("main")
        vm.run()
        assert module.fuse_engine is None

    def test_shipped_vms_never_run_the_reference_handlers(self,
                                                          monkeypatch):
        module = build_sleeper_contention()
        expected = run_fingerprint(module, RandomScheduler(3),
                                   reference=True)

        def forbidden(*args, **kwargs):
            raise AssertionError("reference path outside reference mode")

        for name in dir(VM):
            if name.startswith("_exec") or name == "evaluate":
                monkeypatch.setattr(VM, name, forbidden)
        # stepwise, fused, and under a wrapper scheduler: ops only
        assert run_fingerprint(module, RandomScheduler(3)) == expected
        assert run_fingerprint(module, RandomScheduler(3),
                               fuse=True) == expected
        assert run_fingerprint(module,
                               RecordingScheduler(RandomScheduler(3)),
                               fuse=True) == expected

    def test_call_op_compiled_before_an_override_runs_it(self):
        from repro.runtime import externals

        module = build_sleep_forever(delay=1_000_000)
        vm = VM(module, scheduler=RoundRobinScheduler(), max_steps=25)
        vm.start("main")
        assert vm.run().reason == ExecutionResult.STEP_LIMIT  # asleep
        call = module.get_function("main").entry.instructions[0]
        op = module.fuse_engine.ops[call]
        calls = []

        def no_sleep(vm, thread, instruction, arguments):
            calls.append(list(arguments))

        with externals.overridden("usleep", no_sleep):
            vm = VM(module, scheduler=RoundRobinScheduler(), max_steps=25)
            vm.start("main")
            assert vm.run().reason == ExecutionResult.FINISHED
        assert calls == [[1_000_000]]
        assert module.fuse_engine.ops[call] is op

    @pytest.mark.parametrize("kind", sorted(_FAULTS))
    def test_faults_match_the_reference(self, kind):
        """Same fault, message, step and call stack as the reference path."""
        module = _faulting_module(kind)
        runs = [run_fingerprint(module, RoundRobinScheduler(),
                                reference=reference)
                for reference in (True, False)]
        assert runs[0] == runs[1]
        assert runs[0]["reason"] == ExecutionResult.FAULT
        (fault,) = runs[0]["faults"]
        assert (fault[0], fault[4]) == (_FAULTS[kind][0].value,
                                        _FAULTS[kind][1])
        if kind in ("load", "store", "atomicrmw"):
            assert fault[5] == (("main", "bad.c", 2),)


# ----------------------------------------------------------------------
# differential: fast loop ≡ reference loop ≡ fused execution

class TestDifferentialParity:
    @given(st.sampled_from(sorted(MODULE_BUILDERS)),
           st.sampled_from(["random", "round_robin", "pct"]),
           st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_three_way_fingerprint_parity(self, name, kind, seed):
        module = MODULE_BUILDERS[name]()
        reference = run_fingerprint(module, make_scheduler(kind, seed),
                                    reference=True)
        fast = run_fingerprint(module, make_scheduler(kind, seed))
        fused = run_fingerprint(module, make_scheduler(kind, seed),
                                fuse=True)
        assert fast == reference
        assert fused == reference

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_scheduler_rng_state_matches_after_fused_run(self, seed):
        module = build_counter_race(iterations=4)
        stepwise_scheduler = RandomScheduler(seed)
        fused_scheduler = RandomScheduler(seed)
        stepwise = run_fingerprint(module, stepwise_scheduler)
        fused = run_fingerprint(module, fused_scheduler, fuse=True)
        assert fused == stepwise
        # the rng consumed exactly the same entropy: any continuation
        # (e.g. the verifier reusing the scheduler) stays identical
        assert (fused_scheduler._rng.getstate()
                == stepwise_scheduler._rng.getstate())

    @given(st.integers(0, 200), st.integers(5, 60))
    @settings(max_examples=20, deadline=None)
    def test_step_limit_boundary_identical(self, seed, limit):
        """run_length windows clamp at the budget: a fused run never
        overshoots the limit the stepwise run stops at."""
        module = build_counter_race(iterations=50)
        stepwise = run_fingerprint(module, RandomScheduler(seed),
                                   max_steps=limit)
        fused = run_fingerprint(module, RandomScheduler(seed), fuse=True,
                                max_steps=limit)
        assert fused == stepwise
        assert fused["steps"] <= limit


# ----------------------------------------------------------------------
# loop traces


class LoopRun(NamedTuple):
    """One fused run of a loop trace, as the VM executed it."""

    granted: int
    ran: int
    length: int
    faulted: bool
    #: the grant ended at a sleeper's wake step
    sleeper_clamped: bool
    #: the grant ended at the step budget
    budget_clamped: bool


class SteppingSpy:
    """Records, for the VMs that run while installed, the thread of every
    step and every loop run (``VM.step_thread``/``VM._step_fused``)."""

    def __init__(self, monkeypatch):
        self.schedule = []
        self.loop_runs = []
        step_thread = VM.step_thread
        step_fused = VM._step_fused

        def spy_step(vm, thread, instruction=None):
            self.schedule.append(thread.thread_id)
            return step_thread(vm, thread, instruction)

        def spy_fused(vm, thread, plan, count):
            first = vm.step
            wakes = {sleeper.wake_step for sleeper in vm._blocked}
            outcome = step_fused(vm, thread, plan, count)
            ran = vm.step - first
            self.schedule.extend([thread.thread_id] * ran)
            if plan.loop is not None:
                self.loop_runs.append(LoopRun(
                    count, ran, plan.length, outcome is not None,
                    first + count in wakes,
                    first + count == vm.max_steps))
            return outcome

        monkeypatch.setattr(VM, "step_thread", spy_step)
        monkeypatch.setattr(VM, "_step_fused", spy_fused)

    def take(self):
        taken = self.schedule, self.loop_runs
        self.schedule, self.loop_runs = [], []
        return taken


def loop_scheduler(kind: str, seed: int):
    """Schedulers whose grants span whole loop iterations."""
    if kind == "round_robin":
        return RoundRobinScheduler(quantum=10 + 7 * seed)
    if kind == "pct":
        return PCTScheduler(seed=seed, depth=4, expected_steps=200)
    return RandomScheduler(seed)


#: case -> (modules, step budget, what one of their loop runs must show).
#: The random scheduler grants a lone thread the whole budget, so only a
#: sleeper's wake step or the budget can cut its loop runs mid-iteration.
LOOP_CASES = {
    "exits_mid_grant": (
        (build_count_loop,), 50_000,
        lambda run: run.ran < run.granted and not run.faulted),
    "grant_ends_mid_iteration": (
        (build_count_loop, lambda: build_spin_wait(delay=60)), 50_000,
        lambda run: run.ran == run.granted and run.ran % run.length),
    "sleeper_wakes_inside": (
        (lambda: build_spin_wait(delay=60),), 50_000,
        lambda run: run.sleeper_clamped and run.ran == run.granted),
    "fault_in_iteration_n": (
        (lambda: build_divider(start=6),), 50_000,
        lambda run: run.faulted and run.ran > run.length),
    "budget_ends_the_run": (
        (lambda: build_spin_wait(delay=10_000),), 300,
        lambda run: run.budget_clamped and run.ran == run.granted),
}


class TestLoopTraces:
    @pytest.mark.parametrize("kind", ["round_robin", "random", "pct"])
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_fused_loop_runs_equal_stepwise(self, monkeypatch, case, kind):
        """Equal event streams, schedules and scheduler (RNG) state, and
        the case shows up in at least one seed's loop runs."""
        builds, max_steps, shows = LOOP_CASES[case]
        spy = SteppingSpy(monkeypatch)
        shown = 0
        for build in builds:
            module = build()
            for seed in range(6):
                schedulers = [loop_scheduler(kind, seed) for _ in range(2)]
                stepwise = run_fingerprint(module, schedulers[0],
                                           max_steps=max_steps)
                stepwise_schedule, runs = spy.take()
                assert runs == []
                fused = run_fingerprint(module, schedulers[1], fuse=True,
                                        max_steps=max_steps)
                fused_schedule, runs = spy.take()
                assert fused == stepwise
                assert fused_schedule == stepwise_schedule
                assert (_scheduler_state(schedulers[1])
                        == _scheduler_state(schedulers[0]))
                shown += sum(1 for run in runs if shows(run))
        assert shown > 0, case

    def test_plans_closing_on_their_start_are_loops(self):
        spin = build_spin_wait()
        counting = build_count_loop()
        divider = build_divider()
        vm = VM(spin, scheduler=RoundRobinScheduler())
        engine = vm.fuse_engine
        waiter = spin.get_function("waiter")
        plan = engine._compile(vm, waiter.get_block("spin"), 0)
        assert plan.loop is waiter.get_block("spin") and plan.length == 3
        # read-only: its load and compare decide the fixed point
        assert [type(i) for i in plan.writes] == [Load, ICmp]
        # entering the spin block mid-way is no loop
        assert engine._compile(vm, waiter.get_block("spin"), 1).loop is None
        vm = VM(counting, scheduler=RoundRobinScheduler())
        engine = vm.fuse_engine
        main = counting.get_function("main")
        body = main.get_block("body")
        plan = engine._compile(vm, body, 0)
        assert plan.loop is body and plan.length == 9  # body, then cond
        assert plan.writes is None  # it stores
        # the header's branch leads to body or done, never back to cond
        assert engine._compile(vm, main.get_block("cond"), 0).loop is None
        vm = VM(divider, scheduler=RoundRobinScheduler())
        cond = divider.get_function("main").get_block("cond")
        # an unconditional back-edge to the start closes a loop as well
        assert vm.fuse_engine._compile(vm, cond, 0).loop is cond

    def test_linux_spin_runs_as_few_loop_runs(self, monkeypatch):
        """Seed 8's ready_waiter spin: far fewer fused runs than spin
        iterations (one access per iteration).  An observer without the
        repeat hook sees every iteration and nothing is skipped; with the
        SKI detector attached the spin skips at least 99% of its loop
        steps."""
        from repro.apps.registry import spec_by_name
        from repro.detectors.ski import SkiDetector
        from repro.runtime.events import TraceObserver

        spin = "ready_waiter_kernel_sched"

        class SpinCounter(TraceObserver):
            iterations = 0

            def on_access(self, event):
                if event.instruction.function.name == spin:
                    self.iterations += 1

        loop_steps = {"ran": 0, "skipped": 0}
        step_fused = VM._step_fused

        def spy(vm, thread, plan, count):
            first, skipped = vm.step, vm.fuse_engine.skipped_steps
            outcome = step_fused(vm, thread, plan, count)
            if plan.loop is not None and plan.loop.function.name == spin:
                loop_steps["ran"] += vm.step - first
                loop_steps["skipped"] += (vm.fuse_engine.skipped_steps
                                          - skipped)
            return outcome

        monkeypatch.setattr(VM, "_step_fused", spy)
        spec = spec_by_name("linux")
        vm = spec.make_vm(seed=8, scheduler=PCTScheduler(seed=8))
        counter = SpinCounter()
        vm.add_observer(counter)
        engine = vm.fuse_engine
        runs_before = engine.fused_runs
        vm.start(spec.entry)
        result = vm.run()
        assert result.reason == ExecutionResult.STEP_LIMIT
        assert counter.iterations > 50_000
        assert engine.fused_runs - runs_before < counter.iterations / 10
        assert loop_steps["ran"] > 3 * 50_000
        assert loop_steps["skipped"] == 0

        loop_steps.update(ran=0, skipped=0)
        vm = spec.make_vm(seed=8, scheduler=PCTScheduler(seed=8))
        detector = SkiDetector()
        vm.add_observer(detector)
        vm.start(spec.entry)
        skipped = vm.run()
        assert (skipped.reason, skipped.steps) == (result.reason,
                                                   result.steps)
        assert loop_steps["ran"] > 3 * 50_000
        assert loop_steps["skipped"] >= 0.99 * loop_steps["ran"]
        assert detector.access_count > counter.iterations


# ----------------------------------------------------------------------
# fixed points: a read-only loop trace skips to the end of its grant


class LoopShape(NamedTuple):
    """A waiter's read-only loop for :func:`build_read_only_loop`."""

    #: the loop trace starts at ``head``, which reads the registers that
    #: the previous iteration's ``x`` and ``y`` blocks wrote
    carried: bool
    #: globals loaded per iteration (1-3)
    loads: int
    #: arithmetic folded over the loaded values: (operator, constant)
    folds: Tuple[Tuple[str, int], ...]
    #: the loop leaves once the folded value's low 3 bits equal this
    target: int
    #: the writer's script: (steps asleep, global, value stored)
    writes: Tuple[Tuple[int, int, int], ...]


def build_read_only_loop(shape: LoopShape) -> Module:
    """A waiter cycling a read-only loop over globals a sleeping writer
    changes now and then.

    Without ``carried`` the loop is one block.  With it the waiter enters
    at ``x`` and the loop trace starts at ``head``: ``head`` reads the
    previous iteration's ``x`` and ``y`` registers (computed from memory
    as it was before the run when the run starts) and loads the table
    slot they pick, so the first iteration of a run may differ from the
    second, and only later ones repeat.
    """
    module = Module("read_only_loop")
    b = IRBuilder(module)
    cells = [b.global_var("g%d" % index, I64, 5 * index + 1)
             for index in range(3)]
    table = b.global_var("table", ArrayType(I64, 4), [7, 11, 13, 17])
    b.begin_function("writer", I32, [("arg", ptr(I8))], source_file="w.c")
    for line, (delay, cell, value) in enumerate(shape.writes, 1):
        b.call("usleep", [delay], line=line)
        b.store(value, cells[cell], line=line)
    b.ret(b.i32(0), line=9)
    b.end_function()
    b.begin_function("waiter", I32, [("arg", ptr(I8))], source_file="l.c")
    slots = b.cast("bitcast", table, ptr(I64), line=10)
    b.br("x" if shape.carried else "loop", line=10)
    b.at("x" if shape.carried else "loop")
    value = b.load(cells[0], line=11)
    for index in range(1, shape.loads):
        value = b.binop("xor", value, b.load(cells[index], line=12), line=12)
    for op, constant in shape.folds:
        value = b.binop(op, value, constant, line=13)
    if shape.carried:
        b.br("y", line=13)
        b.at("y")
    low = b.binop("and", value, 7, line=14)
    leave = b.icmp("eq", low, shape.target, line=14)
    b.cond_br(leave, "done", "head" if shape.carried else "loop", line=14)
    if shape.carried:
        b.at("head")
        slot = b.index(slots, b.binop("and", low, 3, line=15), line=15)
        b.add(b.load(slot, line=15), value, line=16)
        b.br("x", line=16)
    b.at("done")
    b.ret(b.i32(0), line=17)
    b.end_function()
    b.begin_function("main", I32, [], source_file="l.c")
    handles = [b.call("thread_create", [module.get_function(name), b.null()],
                      line=20 + offset)
               for offset, name in enumerate(("writer", "waiter"))]
    for offset, handle in enumerate(handles):
        b.call("thread_join", [handle], line=22 + offset)
    b.ret(b.i32(0), line=24)
    b.end_function()
    verify_module(module)
    return module


def skip_scheduler(kind: str, seed: int, max_steps: int):
    """Round-robin quanta over whole iterations, PCT change points inside
    the run, random grants to a lone thread."""
    if kind == "round_robin":
        return RoundRobinScheduler(quantum=10 + 7 * seed)
    if kind == "pct":
        return PCTScheduler(seed=seed, depth=4, expected_steps=max_steps)
    return RandomScheduler(seed)


def assert_skipping_equals_stepwise(module: Module, kind: str, seed: int,
                                    max_steps: int, **options) -> int:
    """Run ``module`` stepwise and as shipped; both must have equal
    fingerprints, schedules and scheduler (RNG) state.  Returns the steps
    the shipped run skipped."""
    with pytest.MonkeyPatch.context() as patch:
        spy = SteppingSpy(patch)
        schedulers = [skip_scheduler(kind, seed, max_steps)
                      for _ in range(2)]
        stepwise = run_fingerprint(module, schedulers[0],
                                   max_steps=max_steps, **options)
        stepwise_schedule, _ = spy.take()
        engine = fuse_engine(module)
        skipped = engine.skipped_steps
        fused = run_fingerprint(module, schedulers[1], fuse=True,
                                max_steps=max_steps, **options)
        skipped = engine.skipped_steps - skipped
        fused_schedule, _ = spy.take()
    assert fused == stepwise
    assert fused_schedule == stepwise_schedule
    assert _scheduler_state(schedulers[1]) == _scheduler_state(schedulers[0])
    return skipped


_LOOP_SHAPES = st.builds(
    LoopShape,
    carried=st.booleans(),
    loads=st.integers(1, 3),
    folds=st.lists(st.tuples(
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "shl",
                         "lshr"]),
        st.integers(0, 9)), max_size=3).map(tuple),
    target=st.integers(0, 7),
    writes=st.lists(st.tuples(st.integers(1, 400), st.integers(0, 2),
                              st.integers(0, 40)), max_size=3).map(tuple),
)

#: shapes whose waiter spins for most of the run, under every scheduler
_SPINNING_SHAPES = (
    LoopShape(False, 1, (), 7, ((300, 1, 4),)),
    LoopShape(True, 3, (("mul", 3), ("add", 2)), 6, ((50, 2, 9),
                                                      (200, 0, 8))),
    LoopShape(True, 2, (("xor", 5),), 5, ()),
)


class TestFixedPoints:
    @given(_LOOP_SHAPES, st.sampled_from(["round_robin", "random", "pct"]),
           st.integers(0, 40), st.integers(40, 2500))
    @settings(max_examples=60, deadline=None)
    def test_random_read_only_loops_skip_exactly(self, shape, kind, seed,
                                                 max_steps):
        """Any read-only loop, any scheduler: sleepers waking inside the
        loop, PCT change points inside it and budgets that end
        mid-iteration cut the grants; the skipping run equals the
        stepwise one."""
        assert_skipping_equals_stepwise(build_read_only_loop(shape), kind,
                                        seed, max_steps)

    @pytest.mark.parametrize("kind", ["round_robin", "random", "pct"])
    def test_spinning_loops_skip(self, kind):
        skipped = 0
        for shape in _SPINNING_SHAPES:
            module = build_read_only_loop(shape)
            for seed in range(3):
                skipped += assert_skipping_equals_stepwise(
                    module, kind, seed, 3000)
        assert skipped > 0

    @pytest.mark.parametrize("kind", ["store", "alloca", "cast", "fault"])
    def test_loops_that_are_never_skipped(self, kind):
        """A store, an alloca or a cast in the loop, or a load recording
        a tolerated fault on every iteration: the loop fuses but skips
        nothing, and runs as it does stepwise.  The same loop without
        them skips."""
        options = {"nonfatal_faults": frozenset({
            FaultKind.FIELD_OVERFLOW, FaultKind.BUFFER_OVERFLOW})}
        for variant, skips in ((kind, False), ("plain", True)):
            module = build_unskippable_loop(variant)
            for scheduler in ("round_robin", "random", "pct"):
                skipped = assert_skipping_equals_stepwise(
                    module, scheduler, 1, 2000, **options)
                assert bool(skipped) == skips, (variant, scheduler)
            assert module.fuse_engine.fused_steps > 1000
        if kind == "fault":
            fingerprint = run_fingerprint(build_unskippable_loop(kind),
                                          RandomScheduler(0), fuse=True,
                                          max_steps=2000, **options)
            assert len(fingerprint["faults"]) > 300

    def test_an_observer_without_the_hook_declines(self):
        """The base observer refuses every repeat: nothing is skipped and
        it sees every iteration."""
        from repro.runtime.events import TraceObserver

        class Counter(TraceObserver):
            accesses = 0

            def on_access(self, event):
                self.accesses += 1

        module = build_unskippable_loop("plain")
        counts = []
        for shipped in (False, True):
            with nullcontext() if shipped else stepwise_execution():
                vm = VM(module, scheduler=RandomScheduler(0), max_steps=2000)
            counter = Counter()
            vm.add_observer(counter)
            vm.start("main")
            vm.run()
            counts.append((counter.accesses, vm.step))
        assert counts[0] == counts[1]
        assert module.fuse_engine.skipped_steps == 0
        assert module.fuse_engine.fused_steps > 1000


def build_unskippable_loop(kind: str) -> Module:
    """main spins on a flag nobody sets; the loop also holds, by
    ``kind``: a ``store`` to another global, an ``alloca``, a ``cast``,
    an 8-byte load of a 4-byte global (``fault``: a BUFFER_OVERFLOW the
    VM must be told to tolerate), or nothing (``plain``)."""
    module = Module("unskippable_%s" % kind)
    b = IRBuilder(module)
    flag = b.global_var("flag", I64, 0)
    seen = b.global_var("seen", I64, 0)
    small = b.global_var("small", I32, 0)
    b.begin_function("main", I32, [], source_file="u.c")
    wide = b.cast("bitcast", small, ptr(I64), line=1)
    b.br("spin", line=1)
    b.at("spin")
    value = b.load(flag, line=2)
    if kind == "store":
        b.store(value, seen, line=3)
    elif kind == "alloca":
        b.alloca(I64, line=3)
    elif kind == "cast":
        b.cast("bitcast", flag, ptr(I8), line=3)
    elif kind == "fault":
        b.load(wide, line=3)
    done = b.icmp("ne", value, 0, line=4)
    b.cond_br(done, "done", "spin", line=4)
    b.at("done")
    b.ret(b.i32(0), line=5)
    b.end_function()
    verify_module(module)
    return module


class TestFusedBoundaries:
    def test_fault_bails_out_mid_run(self):
        module = build_divider(start=3)
        stepwise = run_fingerprint(module, RoundRobinScheduler())
        fused = run_fingerprint(module, RoundRobinScheduler(), fuse=True)
        engine = module.fuse_engine
        assert fused == stepwise
        assert stepwise["reason"] == ExecutionResult.FAULT
        assert stepwise["faults"][0][0] == FaultKind.DIVISION_BY_ZERO.value
        assert engine.bailouts == 1
        assert engine.fused_runs >= 1

    def test_invalidation_between_runs_recompiles_identically(self):
        module = build_counter_race(iterations=4)
        first = run_fingerprint(module, RoundRobinScheduler(), fuse=True)
        engine = module.fuse_engine
        compiled = engine.compiled
        assert compiled >= 1
        engine.invalidate()
        second = run_fingerprint(module, RoundRobinScheduler(), fuse=True)
        assert first == second
        assert module.fuse_engine is engine
        assert engine.invalidations == 1
        assert engine.compiled == 2 * compiled  # recompiled after the flush

    def test_sleeper_wakeup_shrinks_the_window(self):
        # a thread sleeping mid-run clamps max_len to its wake step; the
        # fused sweep must wake it at exactly the same step
        module = build_sleeper_contention()
        for seed in range(5):
            stepwise = run_fingerprint(module, RoundRobinScheduler())
            fused = run_fingerprint(module, RoundRobinScheduler(),
                                    fuse=True)
            assert fused == stepwise

    def test_debugger_disables_fusion(self):
        from repro.ir.instructions import Load
        from repro.runtime.debugger import Debugger

        module = build_counter_race(iterations=4)
        vm = VM(module, scheduler=RoundRobinScheduler(), max_steps=10_000)
        debugger = Debugger(vm)
        worker = module.get_function("worker")
        load = next(instruction for block in worker.blocks
                    for instruction in block.instructions
                    if isinstance(instruction, Load))
        debugger.add_breakpoint(load)
        vm.start("main")
        result = vm.run()
        assert result.reason == ExecutionResult.BREAKPOINT
        assert vm.fuse_engine.fused_runs == 0
