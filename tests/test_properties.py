"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import assume, given, settings, strategies as st

from repro.detectors.vectorclock import VectorClock
from repro.ir.types import ArrayType, IntType, StructType, I8, I64
from repro.runtime.memory import Memory, MemoryBlock

clock_maps = st.dictionaries(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=1000),
    max_size=6,
)


class TestVectorClockProperties:
    @given(clock_maps, clock_maps)
    def test_join_is_upper_bound(self, a_map, b_map):
        a = VectorClock(a_map)
        b = VectorClock(b_map)
        joined = a.copy()
        joined.join(b)
        assert a.happens_before(joined)
        assert b.happens_before(joined)

    @given(clock_maps, clock_maps)
    def test_join_commutes(self, a_map, b_map):
        left = VectorClock(a_map)
        left.join(VectorClock(b_map))
        right = VectorClock(b_map)
        right.join(VectorClock(a_map))
        assert left.happens_before(right) and right.happens_before(left)

    @given(clock_maps, clock_maps, clock_maps)
    def test_happens_before_transitive(self, a_map, b_map, c_map):
        a, b, c = VectorClock(a_map), VectorClock(b_map), VectorClock(c_map)
        b.join(a)   # force a <= b
        c.join(b)   # force b <= c
        assert a.happens_before(c)

    @given(clock_maps, st.integers(min_value=1, max_value=8))
    def test_tick_breaks_reverse_order(self, a_map, tid):
        a = VectorClock(a_map)
        later = a.copy()
        later.tick(tid)
        assert a.happens_before(later)
        assert not later.happens_before(a)

    @given(clock_maps, st.integers(min_value=1, max_value=8))
    def test_ordered_with_own_epoch(self, a_map, tid):
        clock = VectorClock(a_map)
        assert clock.ordered_with(tid, clock.get(tid))
        assert not clock.ordered_with(tid, clock.get(tid) + 1)


class TestIntTypeProperties:
    @given(st.sampled_from([8, 16, 32, 64]), st.integers())
    def test_wrap_idempotent(self, bits, value):
        type_ = IntType(bits)
        assert type_.wrap(type_.wrap(value)) == type_.wrap(value)

    @given(st.sampled_from([8, 16, 32, 64]), st.integers())
    def test_wrap_in_range(self, bits, value):
        type_ = IntType(bits)
        wrapped = type_.wrap(value)
        assert type_.min_value <= wrapped <= type_.max_value

    @given(st.sampled_from([8, 16, 32, 64]), st.integers())
    def test_unsigned_wrap_is_mod(self, bits, value):
        type_ = IntType(bits, signed=False)
        assert type_.wrap(value) == value % (1 << bits)

    @given(st.sampled_from([8, 16, 32, 64]), st.integers(), st.integers())
    def test_wrap_congruent_mod_2n(self, bits, a, b):
        type_ = IntType(bits)
        assert (type_.wrap(a + b) - type_.wrap(a) - type_.wrap(b)) % (
            1 << bits) == 0


class TestStructLayoutProperties:
    field_lists = st.lists(
        st.sampled_from([I8, I64, ArrayType(I8, 4), ArrayType(I64, 2)]),
        min_size=1, max_size=6,
    )

    @given(field_lists)
    def test_offsets_are_disjoint_and_cover(self, field_types):
        struct = StructType("s", [
            ("f%d" % i, t) for i, t in enumerate(field_types)
        ])
        layout = struct.layout()
        # contiguous, non-overlapping, covering the struct exactly
        position = 0
        for name, offset, size in layout:
            assert offset == position
            position += size
        assert position == struct.size()

    @given(field_lists, st.integers(min_value=0, max_value=100))
    def test_field_at_offset_consistent(self, field_types, offset):
        struct = StructType("s", [
            ("f%d" % i, t) for i, t in enumerate(field_types)
        ])
        name = struct.field_at_offset(offset)
        if offset < struct.size():
            assert name is not None
            field_offset = struct.field_offset(name)
            assert field_offset <= offset < field_offset + struct.field_type(
                name).size()
        else:
            assert name is None


class TestMemoryProperties:
    sizes = st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                     max_size=12)

    @given(sizes)
    def test_allocations_disjoint(self, sizes):
        memory = Memory()
        blocks = [memory.allocate(size, MemoryBlock.HEAP) for size in sizes]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert a.end <= b.base or b.end <= a.base

    @given(sizes)
    def test_block_at_finds_every_byte(self, sizes):
        memory = Memory()
        blocks = [memory.allocate(size, MemoryBlock.HEAP) for size in sizes]
        for block in blocks:
            assert memory.block_at(block.base) is block
            assert memory.block_at(block.end - 1) is block

    @given(st.binary(min_size=1, max_size=64))
    def test_write_read_roundtrip(self, data):
        memory = Memory()
        block = memory.allocate(len(data), MemoryBlock.HEAP)
        memory.write_bytes(block.base, data)
        assert memory.read_bytes(block.base, len(data)) == data

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_int_roundtrip_signed(self, value):
        memory = Memory()
        block = memory.allocate(8, MemoryBlock.HEAP)
        memory.write_int(block.base, value, 8)
        assert memory.read_int(block.base, 8, signed=True) == value


class TestSchedulerProperties:
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=25)
    def test_random_scheduler_always_picks_runnable(self, seed, count):
        from repro.runtime.scheduler import RandomScheduler

        class Thread:
            def __init__(self, thread_id):
                self.thread_id = thread_id
                self.name = "t%d" % thread_id

        threads = [Thread(i) for i in range(count)]
        scheduler = RandomScheduler(seed)
        for step in range(50):
            assert scheduler.choose(threads, step) in threads

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20)
    def test_interpreter_deterministic_given_seed(self, seed):
        """Same module + same seed => identical final state."""
        from tests.helpers import build_counter_race, run_to_completion

        module = build_counter_race(iterations=2)
        vm_a = run_to_completion(module, seed=seed)
        vm_b = run_to_completion(module, seed=seed)
        counter_a = vm_a.memory.read_int(vm_a.global_address("counter"), 8)
        counter_b = vm_b.memory.read_int(vm_b.global_address("counter"), 8)
        assert counter_a == counter_b
        assert vm_a.step == vm_b.step


class TestDetectorProperties:
    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_no_false_negatives_on_unlocked_counter_eventually(self, base):
        """Across a handful of seeds the racy pair is always reportable."""
        from repro.detectors import run_tsan
        from tests.helpers import build_counter_race

        module = build_counter_race(iterations=3)
        reports, _ = run_tsan(module, seeds=range(base, base + 4))
        assert len(reports) >= 1

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_no_false_positives_on_locked_counter(self, base):
        from repro.detectors import run_tsan
        from tests.helpers import build_counter_race

        module = build_counter_race(iterations=3, with_lock=True)
        reports, _ = run_tsan(module, seeds=range(base, base + 4))
        assert len(reports) == 0


#: op kinds that shape control flow rather than touch memory in place
CONTROL_KINDS = ("loop", "branch", "helper", "spawn", "indirect", "exit")

#: atomicrmw operators the ``atomic`` op kind picks from
RMW_KINDS = ("add", "sub", "xchg", "and", "or", "xor")


def build_random_module(ops, n_workers):
    """A random multithreaded module from a hypothesis-drawn op list.

    Each op touches shared globals, a mutex, the heap (malloc/realloc/free)
    or the sleep queue, so random programs cover every scheduler block kind
    and every hot-path memo invalidation point.  The :data:`CONTROL_KINDS`
    add a counted loop around an access, a conditional branch, an access
    in a directly called helper, a nested ``thread_create``, an indirect
    call through a global function pointer and ``thread_exit``.  ``atomic``
    is an ``atomicrmw`` (:data:`RMW_KINDS`) on a shared global, then a
    load that observes its result; ``div`` stores ``(global - 7)``'s
    ``udiv`` or ``srem`` (negative dividends included) by a drawn divisor
    that is 0 for a quarter of the draws, so division-by-zero faults
    occur too.
    """
    from repro.ir import IRBuilder, Module, verify_module
    from repro.ir.types import FunctionType, I32, ptr

    b = IRBuilder(Module("rand"))
    shared = [b.global_var("g%d" % i, I64, 0) for i in range(4)]
    lock = b.global_var("lock", I64, 0)
    line = [1]

    def nl():
        line[0] += 1
        return line[0]

    b.set_location("rand.c", 1)
    # What the helper/spawn/indirect ops run: one access to their global.
    callees, pointers = {}, {}
    for position, (kind, idx, val) in enumerate(ops):
        if kind not in ("helper", "spawn", "indirect"):
            continue
        callee = b.begin_function("%s%d" % (kind, position), I32,
                                  [("arg", ptr(I8))], source_file="rand.c")
        b.store(b.add(b.load(shared[idx], line=nl()), val, line=line[0]),
                shared[idx], line=line[0])
        b.ret(b.i32(0), line=nl())
        b.end_function()
        callees[position] = callee
        if kind == "indirect":
            pointers[position] = b.global_var("fp%d" % position, I64, 0)

    b.begin_function("worker", I32, [("arg", ptr(I8))], source_file="rand.c")
    for position, (kind, idx, val) in enumerate(ops):
        g = shared[idx]
        if kind == "inc":
            b.store(b.add(b.load(g, line=nl()), 1, line=line[0]), g,
                    line=line[0])
        elif kind == "store":
            b.store(val, g, line=nl())
        elif kind == "load":
            b.load(g, line=nl())
        elif kind == "locked_inc":
            guard = b.cast("bitcast", lock, ptr(I8), line=nl())
            b.call("mutex_lock", [guard], line=nl())
            b.store(b.add(b.load(g, line=nl()), 1, line=line[0]), g,
                    line=line[0])
            b.call("mutex_unlock", [guard], line=nl())
        elif kind == "sleep":
            b.call("usleep", [b.i64(1 + idx)], line=nl())
        elif kind == "atomic":
            b.atomicrmw(RMW_KINDS[val % len(RMW_KINDS)], g,
                        1 + val // len(RMW_KINDS), line=nl())
            b.load(g, line=line[0])
        elif kind == "div":
            dividend = b.sub(b.load(g, line=nl()), 7, line=line[0])
            quotient = b.binop("udiv" if val % 2 else "srem", dividend,
                               val // 2 % 4, line=line[0])
            b.store(quotient, g, line=line[0])
        elif kind == "heap":
            p = b.call("malloc", [b.i64(16)], line=nl())
            tp = b.cast("bitcast", p, ptr(I64), line=nl())
            b.store(b.i64(val), tp, line=line[0])
            q = b.call("realloc", [p, b.i64(32)], line=nl())
            tq = b.cast("bitcast", q, ptr(I64), line=nl())
            b.load(tq, line=line[0])
            b.call("free", [q], line=nl())
        elif kind == "loop":
            head, body, done = ("%s%d" % (name, position)
                                for name in ("head", "body", "done"))
            for name in (head, body, done):
                b.add_block(name)
            count = b.local(I64, "n%d" % position, 0, line=nl())
            b.br(head, line=line[0])
            b.at(head)
            n = b.load(count, line=nl())
            b.cond_br(b.icmp("slt", n, 1 + val % 3, line=line[0]), body,
                      done, line=line[0])
            b.at(body)
            b.store(b.add(b.load(g, line=nl()), 1, line=line[0]), g,
                    line=line[0])
            b.store(b.add(n, 1, line=line[0]), count, line=line[0])
            b.br(head, line=line[0])
            b.at(done)
        elif kind == "branch":
            then, join = ("%s%d" % (name, position)
                          for name in ("then", "join"))
            b.add_block(then)
            b.add_block(join)
            seen = b.load(g, line=nl())
            b.cond_br(b.icmp("ne", seen, val % 2, line=line[0]), then, join,
                      line=line[0])
            b.at(then)
            b.store(val, g, line=nl())
            b.br(join, line=line[0])
            b.at(join)
        elif kind == "helper":
            b.call(callees[position], [b.null()], line=nl())
        elif kind == "spawn":
            child = b.call("thread_create", [callees[position], b.null()],
                           line=nl())
            b.call("thread_join", [child], line=nl())
        elif kind == "indirect":
            address = b.load(pointers[position], line=nl())
            target = b.cast("inttoptr", address,
                            ptr(FunctionType(I32, [ptr(I8)])), line=line[0])
            b.call(target, [b.null()], line=line[0])
        elif kind == "exit":
            b.call("thread_exit", [], line=nl())
    b.ret(b.i32(0), line=nl())
    b.end_function()

    b.begin_function("main", I32, [], source_file="rand.c")
    for position, pointer in pointers.items():
        b.store(b.cast("ptrtoint", callees[position], I64, line=nl()),
                pointer, line=line[0])
    worker = b.module.get_function("worker")
    tids = [b.call("thread_create", [worker, b.null()], line=nl())
            for _ in range(n_workers)]
    for tid in tids:
        b.call("thread_join", [tid], line=nl())
    b.ret(b.i32(0), line=nl())
    b.end_function()
    verify_module(b.module)
    return b.module


class TestDifferentialExecutionProperties:
    op_lists = st.lists(
        st.tuples(
            st.sampled_from(["inc", "store", "load", "heap", "locked_inc",
                             "sleep", "atomic", "div", *CONTROL_KINDS]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1, max_size=8,
    )

    @given(op_lists, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_optimized_matches_reference_on_random_ir(self, ops, workers,
                                                      seed):
        """Reference and optimized execution are observably identical."""
        from repro.runtime.diffcheck import diff_seed
        from repro.spec import ProgramSpec

        module = build_random_module(ops, workers)
        spec = ProgramSpec("rand", lambda: module, max_steps=30_000)
        divergence, reference, optimized = diff_seed(spec, seed)
        assert divergence is None, divergence.describe()
        assert reference.events == optimized.events
        assert reference.faults == optimized.faults
        assert reference.recorded_faults == optimized.recorded_faults


class TestRecordReplayProperties:
    """The replay invariant on arbitrary IR under every scheduler family:
    a log replayed on the same module is bit-identical (fingerprint,
    report set, fault lists) — and a mutated log diverges loudly."""

    op_lists = TestDifferentialExecutionProperties.op_lists

    @staticmethod
    def _schedulers(seed):
        from repro.runtime.scheduler import (
            PCTScheduler, RandomScheduler, RoundRobinScheduler,
        )

        return [RandomScheduler(seed), PCTScheduler(seed=seed, depth=3),
                RoundRobinScheduler(quantum=7)]

    @given(op_lists, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_replay_is_bit_identical_on_random_ir(self, ops, workers, seed):
        from repro.detectors.report import ReportSet
        from repro.detectors.tsan import TSanDetector
        from repro.runtime.diffcheck import compare_fingerprints
        from repro.runtime.record import record_seed, replay_log
        from tests.owl.test_batch import _fingerprints

        module = build_random_module(ops, workers)
        for scheduler in self._schedulers(seed):
            live = TSanDetector(annotations=None, reports=ReportSet())
            log, _, recorded = record_seed(
                module, seed, max_steps=30_000, scheduler=scheduler,
                fingerprint=True, observers=[live])
            detector = TSanDetector(annotations=None, reports=ReportSet())
            outcome = replay_log(module, log, observers=[detector],
                                 fingerprint=True)
            assert outcome.faithful, outcome.as_dict()
            assert compare_fingerprints(recorded,
                                        outcome.fingerprint) is None
            assert _fingerprints(detector.reports) == \
                _fingerprints(live.reports)
            assert outcome.fingerprint.faults == recorded.faults
            assert outcome.fingerprint.recorded_faults == \
                recorded.recorded_faults

    @given(op_lists, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_mutated_log_diverges_loudly(self, ops, workers, seed):
        from repro.runtime.record import record_seed, replay_log

        module = build_random_module(ops, workers)
        log, _, _ = record_seed(module, seed, max_steps=30_000)
        assert log.schedule
        # redirect the first quantum to a thread id that never existed:
        # the replay cannot follow it, whatever the program does
        log.schedule[0] = (999, log.schedule[0][1])
        outcome = replay_log(module, log)
        assert outcome.schedule_divergences >= 1
        assert not outcome.faithful


class TestEarlyStopProperties:
    """The race verifier's early stop on arbitrary IR, control flow
    included: outcomes equal reference mode's, and along a full run the
    stop rule, once it holds, holds at every later step."""

    op_lists = st.lists(
        st.tuples(
            st.sampled_from(["inc", "store", "load", "heap", "locked_inc",
                             "sleep", *CONTROL_KINDS]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1, max_size=8,
    )

    @staticmethod
    def _shared_accesses(module):
        from repro.ir.instructions import Alloca, Load, Store

        return [instruction for instruction in module.instructions()
                if isinstance(instruction, (Load, Store))
                and not isinstance(instruction.pointer, Alloca)]

    @given(op_lists, st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=500), st.data())
    @settings(max_examples=30, deadline=None)
    def test_early_stop_is_sound_on_random_ir(self, ops, workers, seed,
                                               data):
        from repro.detectors.report import AccessRecord, RaceReport
        from repro.ir.reach import reach_analysis
        from repro.owl.race_verifier import DynamicRaceVerifier
        from repro.runtime.interpreter import (
            VM, ExecutionResult, reference_execution,
        )
        from repro.runtime.scheduler import RandomScheduler

        module = build_random_module(ops, workers)
        accesses = self._shared_accesses(module)
        assume(accesses)
        first = data.draw(st.sampled_from(accesses))
        second = data.draw(st.sampled_from(accesses))
        report = RaceReport(AccessRecord(first, 1, True, 0, (), 0),
                            AccessRecord(second, 2, True, 0, (), 0))

        outcomes = []
        for reference in (True, False):
            verifier = DynamicRaceVerifier(module, seeds=[seed, seed + 1],
                                           max_steps=20_000)
            if reference:
                with reference_execution():
                    verification = verifier.verify(report)
            else:
                verification = verifier.verify(report)
            hints = verification.hints
            outcomes.append((
                verification.verified, verification.runs_used,
                None if hints is None else (
                    hints.address, hints.read_value, hints.write_value,
                    hints.null_write)))
        assert outcomes[0] == outcomes[1]

        reach = reach_analysis(module).for_targets((first, second))
        vm = VM(module, scheduler=RandomScheduler(seed), max_steps=20_000,
                seed=seed, reference=True)
        vm.start("main")
        held = False
        while True:
            holds = reach.out_of_reach(t.frames for t in vm._alive)
            assert holds or not held, "the rule stopped holding"
            held = holds
            if held:
                at_targets = [t for t in vm._alive
                              if t.current_instruction() in reach.targets]
                assert len(at_targets) < 2
            result = vm.run(max_steps=1)
            if (result.reason != ExecutionResult.STEP_LIMIT
                    or vm.step >= vm.max_steps):
                break
