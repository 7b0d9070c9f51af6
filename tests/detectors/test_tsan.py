"""Tests for the happens-before (TSan-style) race detector."""

from repro.detectors import AnnotationSet, run_tsan
from repro.detectors.annotations import AdhocSyncAnnotation
from repro.detectors.lockset import run_lockset
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, ptr
from tests.helpers import build_adhoc_sync_module, build_counter_race


class TestRaceDetection:
    def test_unlocked_counter_races(self):
        module = build_counter_race(iterations=3)
        reports, _ = run_tsan(module, seeds=range(6))
        assert len(reports) >= 1
        variables = {report.variable for report in reports}
        assert any("counter" in (v or "") for v in variables)

    def test_locked_counter_clean(self):
        module = build_counter_race(iterations=3, with_lock=True)
        reports, _ = run_tsan(module, seeds=range(6))
        assert len(reports) == 0

    def test_report_carries_both_stacks(self):
        module = build_counter_race(iterations=2)
        reports, _ = run_tsan(module, seeds=range(6))
        report = next(iter(reports))
        assert report.first.call_stack
        assert report.second.call_stack
        assert report.first.thread_id != report.second.thread_id

    def test_reports_deduplicated_across_seeds(self):
        module = build_counter_race(iterations=2)
        few, _ = run_tsan(module, seeds=range(2))
        many, _ = run_tsan(module, seeds=range(10))
        # more seeds may find more pairs but never duplicates of one pair
        keys = [report.static_key for report in many]
        assert len(keys) == len(set(keys))
        assert len(many) >= len(few)

    def test_join_edge_suppresses_race(self):
        """Accesses ordered by thread_join must not be reported."""
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("child", I32, [("arg", ptr(I8))], source_file="j.c")
        b.store(1, g, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="j.c")
        t = b.call("thread_create", [b.module.get_function("child"), b.null()],
                   line=3)
        b.call("thread_join", [t], line=4)
        b.ret(b.load(g, line=5), line=5)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(6))
        assert len(reports) == 0

    def test_create_edge_suppresses_race(self):
        """Parent writes before spawning; child reads: ordered."""
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("child", I64, [("arg", ptr(I8))], source_file="c.c")
        b.ret(b.load(g, line=1), line=1)
        b.end_function()
        b.begin_function("main", I32, [], source_file="c.c")
        b.store(9, g, line=2)
        t = b.call("thread_create", [b.module.get_function("child"), b.null()],
                   line=3)
        b.call("thread_join", [t], line=4)
        b.ret(b.i32(0), line=5)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(6))
        assert len(reports) == 0

    def test_mutex_hb_suppresses_race(self):
        module = build_counter_race(iterations=4, with_lock=True)
        reports, _ = run_tsan(module, seeds=range(8))
        assert len(reports) == 0

    def test_atomic_accesses_not_reported(self):
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("w", I32, [("arg", ptr(I8))], source_file="a.c")
        b.store(1, g, line=1, atomic=True)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="a.c")
        t = b.call("thread_create", [b.module.get_function("w"), b.null()],
                   line=3)
        value = b.load(g, line=4, atomic=True)
        b.call("thread_join", [t], line=5)
        b.ret(value, line=6)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(8))
        assert len(reports) == 0


class TestAdhocAnnotations:
    def test_adhoc_sync_reported_without_annotation(self):
        module = build_adhoc_sync_module()
        reports, _ = run_tsan(module, seeds=range(6))
        variables = {report.variable for report in reports}
        assert any("flag" in (v or "") for v in variables)
        assert any("data" in (v or "") for v in variables)

    def test_annotation_suppresses_flag_and_data_races(self):
        module = build_adhoc_sync_module()
        raw, _ = run_tsan(module, seeds=range(6))
        flag_report = next(r for r in raw if "flag" in (r.variable or ""))
        read = next(a.instruction for a in flag_report.accesses()
                    if not a.is_write)
        write = next(a.instruction for a in flag_report.accesses()
                     if a.is_write)
        annotations = AnnotationSet([AdhocSyncAnnotation(read, write, "flag")])
        reduced, _ = run_tsan(module, seeds=range(6), annotations=annotations)
        # the markup orders the flag pair AND everything published through it
        assert len(reduced) == 0


class TestWatchList:
    def test_write_write_race_gets_subsequent_read(self):
        """Section 6.3: write-write races need a following load attached."""
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("w", I32, [("arg", ptr(I8))], source_file="ww.c")
        b.store(1, g, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="ww.c")
        t1 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=3)
        t2 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=4)
        b.call("thread_join", [t1], line=5)
        b.call("thread_join", [t2], line=6)
        b.ret(b.load(g, line=7), line=7)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(8))
        ww = [r for r in reports if r.is_write_write()]
        assert ww
        report = ww[0]
        assert report.read_access() is not None
        assert report.read_access().instruction.opcode == "load"

    @staticmethod
    def _recurring_ww_module():
        """The same static ww race fires in two rounds, then main loads."""
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("w", I32, [("arg", ptr(I8))], source_file="dup.c")
        b.store(1, g, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="dup.c")
        for round_line in (3, 10):
            t1 = b.call("thread_create",
                        [b.module.get_function("w"), b.null()],
                        line=round_line)
            t2 = b.call("thread_create",
                        [b.module.get_function("w"), b.null()],
                        line=round_line + 1)
            b.call("thread_join", [t1], line=round_line + 2)
            b.call("thread_join", [t2], line=round_line + 3)
        b.ret(b.load(g, line=20), line=20)
        b.end_function()
        verify_module(b.module)
        return b.module

    def test_duplicate_race_recurrence_feeds_watch_list(self):
        """A recurring duplicate of a reported race must keep watching the
        corrupted address: the subsequent load lands on the canonical
        (deduplicated) report, not on a dropped duplicate."""
        reports, _ = run_tsan(self._recurring_ww_module(), seeds=range(8))
        ww = [r for r in reports if r.is_write_write()]
        assert len(ww) == 1  # one static pair despite two racing rounds
        report = ww[0]
        reads = [a for a in report.subsequent_reads
                 if a.instruction.opcode == "load"]
        assert reads, "watch list lost the recurring race's subsequent read"

    @staticmethod
    def _overlap_module():
        """Two threads race on bytes 1..3 of an array; main reads the whole
        array through an I64 view at a *different base address*."""
        from repro.ir.types import ArrayType

        b = IRBuilder(Module("m"))
        arr = b.global_var("arr", ArrayType(I8, 8), None)
        b.begin_function("w", I32, [("arg", ptr(I8))], source_file="ov.c")
        slot = b.index(arr, 1, line=1)
        b.store(7, slot, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="ov.c")
        t1 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=3)
        t2 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=4)
        b.call("thread_join", [t1], line=5)
        b.call("thread_join", [t2], line=6)
        wide = b.cast("bitcast", arr, ptr(I64), line=7)
        b.ret(b.load(wide, line=7), line=7)
        b.end_function()
        verify_module(b.module)
        return b.module

    def test_overlapping_wide_read_hits_watch(self):
        """A multi-byte read covering the corrupted byte at a different base
        address must still be recorded as the subsequent read (the watch
        list matches on byte overlap, not base-address equality)."""
        reports, _ = run_tsan(self._overlap_module(), seeds=range(8))
        ww = [r for r in reports if r.is_write_write()]
        assert ww
        report = ww[0]
        read = report.read_access()
        assert read is not None
        assert read.instruction.opcode == "load"
        # The read starts below the corrupted byte but spans across it.
        lo, hi = read.byte_range
        corrupted_lo, corrupted_hi = report.first.byte_range
        assert lo < corrupted_lo < hi
        assert hi - lo == 8

    def test_overlapping_write_sanitizes_watch(self):
        """A later write covering the corrupted bytes clears the watch, so
        loads after it are not attached."""
        from repro.ir.types import ArrayType

        b = IRBuilder(Module("m"))
        arr = b.global_var("arr", ArrayType(I8, 8), None)
        b.begin_function("w", I32, [("arg", ptr(I8))], source_file="sv.c")
        slot = b.index(arr, 1, line=1)
        b.store(7, slot, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="sv.c")
        t1 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=3)
        t2 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=4)
        b.call("thread_join", [t1], line=5)
        b.call("thread_join", [t2], line=6)
        wide = b.cast("bitcast", arr, ptr(I64), line=7)
        b.store(0, wide, line=7)   # overwrites the racy byte: sanitized
        b.ret(b.load(wide, line=8), line=8)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(8))
        ww = [r for r in reports if r.is_write_write()]
        assert ww
        assert ww[0].read_access() is None

    def test_watch_index_follows_wide_read_then_sanitizing_write(self):
        """The byte index that lets most accesses skip the watch scan
        agrees with the overlap rule: a wide read at another base address
        feeds the watch on byte 1, a wide write over it sanitizes it and
        empties the index, and a later narrow read of byte 1 is not
        attached."""
        from repro.ir.types import ArrayType
        from repro.detectors.tsan import TSanDetector
        from repro.runtime.interpreter import VM
        from repro.runtime.scheduler import RandomScheduler

        b = IRBuilder(Module("m"))
        arr = b.global_var("arr", ArrayType(I8, 8), None)
        b.begin_function("w", I32, [("arg", ptr(I8))], source_file="ix.c")
        b.store(7, b.index(arr, 1, line=1), line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="ix.c")
        t1 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=3)
        t2 = b.call("thread_create", [b.module.get_function("w"), b.null()],
                    line=4)
        b.call("thread_join", [t1], line=5)
        b.call("thread_join", [t2], line=6)
        wide = b.cast("bitcast", arr, ptr(I64), line=7)
        value = b.load(wide, line=7)   # base 0 covers the watched byte 1
        b.store(0, wide, line=8)       # sanitizes it
        b.load(b.index(arr, 1, line=9), line=9)
        b.ret(value, line=10)
        b.end_function()
        verify_module(b.module)
        detectors = []
        for seed in range(8):
            detector = TSanDetector()
            vm = VM(b.module, scheduler=RandomScheduler(seed), seed=seed)
            vm.add_observer(detector)
            vm.start("main")
            vm.run()
            if any(r.is_write_write() for r in detector.reports):
                detectors.append(detector)
        assert detectors
        for detector in detectors:
            ww = [r for r in detector.reports if r.is_write_write()]
            assert [access.instruction.location.line
                    for access in ww[0].subsequent_reads] == [7]
            assert detector._watches == {}
            assert detector._watched_bytes == {}

    def test_report_set_get_is_canonical(self):
        """ReportSet.get returns the deduplicated report for a static key."""
        reports, _ = run_tsan(self._recurring_ww_module(), seeds=range(8))
        for report in reports:
            assert reports.get(report.static_key) is report
        assert reports.get((-1, -1)) is None


    @staticmethod
    def _watched_spin_module():
        """A writer and a reader race on ``flag``; then a spinner, which
        slept through the race, spins on the watched flag until the step
        budget."""
        b = IRBuilder(Module("watched_spin"))
        flag = b.global_var("flag", I32, 0)
        b.begin_function("writer", I32, [("arg", ptr(I8))],
                         source_file="ws.c")
        b.store(0, flag, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("reader", I32, [("arg", ptr(I8))],
                         source_file="ws.c")
        b.load(flag, line=3)
        b.ret(b.i32(0), line=4)
        b.end_function()
        b.begin_function("spinner", I32, [("arg", ptr(I8))],
                         source_file="ws.c")
        b.call("usleep", [40], line=5)
        b.br("spin", line=5)
        b.at("spin")
        value = b.load(flag, line=6)
        waiting = b.icmp("ne", value, 1, line=6)
        b.cond_br(waiting, "spin", "done", line=6)
        b.at("done")
        b.ret(b.i32(0), line=7)
        b.end_function()
        b.begin_function("main", I32, [], source_file="ws.c")
        handles = [b.call("thread_create",
                          [b.module.get_function(name), b.null()],
                          line=10 + offset)
                   for offset, name in enumerate(
                       ("writer", "reader", "spinner"))]
        for offset, handle in enumerate(handles):
            b.call("thread_join", [handle], line=20 + offset)
        b.ret(b.i32(0), line=30)
        b.end_function()
        verify_module(b.module)
        return b.module

    def test_spin_over_a_watched_flag_is_not_skipped(self):
        """Every read of a watched byte joins a report's subsequent
        reads, so TSan declines the spin's repeats: nothing is skipped and
        the reports equal a stepwise run's.  With no watch the same loop
        skips."""
        from repro.detectors.report import ReportSet, reports_to_payloads
        from repro.detectors.tsan import TSanDetector
        from repro.runtime.diffcheck import TraceRecorder
        from repro.runtime.interpreter import VM, stepwise_execution
        from repro.runtime.scheduler import PCTScheduler, RoundRobinScheduler

        module = self._watched_spin_module()
        spinner = module.get_function("spinner")

        def run(scheduler, observer, stepwise):
            if stepwise:
                with stepwise_execution():
                    vm = VM(module, scheduler=scheduler, max_steps=3000)
            else:
                vm = VM(module, scheduler=scheduler, max_steps=3000)
            vm.add_observer(observer)
            skipped = vm.fuse_engine.skipped_steps
            vm.start("main")
            vm.run()
            return vm.fuse_engine.skipped_steps - skipped

        for make in (lambda: RoundRobinScheduler(quantum=40),
                     lambda: PCTScheduler(seed=2, expected_steps=3000)):
            sides = []
            for stepwise in (True, False):
                detector = TSanDetector(reports=ReportSet())
                skipped = run(make(), detector, stepwise)
                assert skipped == 0
                sides.append(detector)
            assert (reports_to_payloads(sides[0].reports)
                    == reports_to_payloads(sides[1].reports))
            assert sides[0].access_count == sides[1].access_count
            spins = [read for report in sides[1].reports
                     for read in report.subsequent_reads
                     if read.instruction.function is spinner]
            assert len(spins) > 500
            assert run(make(), TraceRecorder(), False) > 0


class TestLocksetBaseline:
    def test_lockset_noisier_than_hb(self):
        """Eraser flags fork/join-ordered accesses HB exonerates."""
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("child", I32, [("arg", ptr(I8))], source_file="l.c")
        b.store(1, g, line=1)
        b.ret(b.i32(0), line=2)
        b.end_function()
        b.begin_function("main", I64, [], source_file="l.c")
        t = b.call("thread_create", [b.module.get_function("child"), b.null()],
                   line=3)
        b.call("thread_join", [t], line=4)
        b.ret(b.load(g, line=5), line=5)
        b.end_function()
        verify_module(b.module)
        hb_reports, _ = run_tsan(b.module, seeds=range(4))
        lockset_reports = run_lockset(b.module, seeds=range(4))
        assert len(hb_reports) == 0
        assert len(lockset_reports) >= 1
