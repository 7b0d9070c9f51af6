"""Tests for the extension features: audit-scope reduction (paper §7.2),
the CTrigger-style atomicity detector (§7.2/§8.3 future work), and
PRES-style record/replay scheduling."""

import pytest

from repro.detectors.atomicity import AtomicityDetector, run_atomicity
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, ptr
from repro.owl.audit import AuditingObserver, AuditScope
from repro.runtime import VM
from repro.runtime.scheduler import (
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
)
from tests.helpers import build_counter_race


class TestAuditScope:
    @pytest.fixture(scope="class")
    def libsafe_scope(self):
        from repro.apps.libsafe import libsafe_spec
        from repro.owl.pipeline import OwlPipeline

        spec = libsafe_spec()
        result = OwlPipeline(spec).run()
        return spec, AuditScope(spec.build(), result.vulnerabilities)

    def test_scope_covers_vulnerable_functions(self, libsafe_scope):
        _, scope = libsafe_scope
        assert scope.covers_function("libsafe_strcpy")
        assert scope.covers_function("stack_check")

    def test_scope_skips_unrelated_functions(self, libsafe_scope):
        _, scope = libsafe_scope
        # the benign handler and evil payload are not on any vulnerable path
        assert "benign_handler" in scope.skipped_functions()

    def test_audited_fraction_below_one(self, libsafe_scope):
        _, scope = libsafe_scope
        assert 0 < scope.audited_fraction() < 1

    def test_describe(self, libsafe_scope):
        _, scope = libsafe_scope
        assert "audit scope:" in scope.describe()

    def test_observer_alarms_on_site_execution(self, libsafe_scope):
        spec, scope = libsafe_scope
        attack = spec.attacks[0]
        for seed in range(30):
            vm = spec.make_vm(seed=seed, inputs=attack.subtle_inputs)
            monitor = AuditingObserver(scope)
            vm.add_observer(monitor)
            vm.start("main")
            vm.run()
            if attack.predicate(vm):
                # the unchecked strcpy at intercept.c:165 must have alarmed
                assert any(
                    alarm.instruction.location.line == 165
                    for alarm in monitor.alarms
                )
                return
        pytest.fail("exploit never fired under audit")

    def test_observer_skips_most_events(self, libsafe_scope):
        spec, scope = libsafe_scope
        vm = spec.make_vm(seed=0)
        monitor = AuditingObserver(scope)
        vm.add_observer(monitor)
        vm.start("main")
        vm.run()
        # section 7.2's performance point: a scoped monitor audits less
        assert monitor.events_skipped > 0


class TestAtomicityDetector:
    def build_rwr_module(self):
        """check-then-use on one variable: R(local) W(remote) R(local)."""
        b = IRBuilder(Module("m"))
        balance = b.global_var("balance", I64, 100)
        b.begin_function("withdraw", I32, [("arg", ptr(I8))],
                         source_file="atm.c")
        first = b.load(balance, line=10)
        enough = b.icmp("sge", first, 50, line=10)
        b.cond_br(enough, "take", "out", line=10)
        b.at("take")
        b.call("io_delay", [40], line=11)
        second = b.load(balance, line=12)
        b.store(b.sub(second, 50, line=12), balance, line=12)
        b.br("out", line=12)
        b.at("out")
        b.ret(b.i32(0), line=13)
        b.end_function()
        b.begin_function("main", I32, [], source_file="atm.c")
        w = b.module.get_function("withdraw")
        t1 = b.call("thread_create", [w, b.null()], line=20)
        t2 = b.call("thread_create", [w, b.null()], line=21)
        b.call("thread_join", [t1], line=22)
        b.call("thread_join", [t2], line=23)
        b.ret(b.i32(0), line=24)
        b.end_function()
        verify_module(b.module)
        return b.module

    def test_unserializable_interleaving_detected(self):
        module = self.build_rwr_module()
        reports, _ = run_atomicity(module, seeds=range(10))
        assert len(reports) >= 1
        patterns = {
            report.tags.get(AtomicityDetector.PATTERN_TAG)
            for report in reports
        }
        assert any(p for p in patterns)

    def test_reports_compatible_with_algorithm1(self):
        """The §6.3 contract: reports expose a racy load + call stack."""
        module = self.build_rwr_module()
        reports, _ = run_atomicity(module, seeds=range(10))
        with_load = [r for r in reports if r.read_access() is not None]
        assert with_load
        from repro.owl.vuln_analysis import VulnerabilityAnalyzer

        analyzer = VulnerabilityAnalyzer(module)
        for report in with_load:
            analyzer.analyze_report(report)  # must not raise

    def test_serial_execution_clean(self):
        """One thread alone has no unserializable interleavings."""
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("main", I32, [], source_file="s.c")
        for line in range(1, 6):
            value = b.load(g, line=line)
            b.store(b.add(value, 1, line=line), g, line=line)
        b.ret(b.i32(0), line=6)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_atomicity(b.module, seeds=range(4))
        assert len(reports) == 0

    def test_atomic_accesses_ignored(self):
        b = IRBuilder(Module("m"))
        g = b.global_var("g", I64, 0)
        b.begin_function("bump", I32, [("arg", ptr(I8))], source_file="a.c")
        b.atomicrmw("add", g, 1, line=1)
        b.atomicrmw("add", g, 1, line=2)
        b.ret(b.i32(0), line=3)
        b.end_function()
        b.begin_function("main", I32, [], source_file="a.c")
        w = b.module.get_function("bump")
        t1 = b.call("thread_create", [w, b.null()], line=4)
        t2 = b.call("thread_create", [w, b.null()], line=5)
        b.call("thread_join", [t1], line=6)
        b.call("thread_join", [t2], line=7)
        b.ret(b.i32(0), line=8)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_atomicity(b.module, seeds=range(6))
        assert len(reports) == 0


class TestRecordReplay:
    def _final_counter(self, vm):
        return vm.memory.read_int(vm.global_address("counter"), 8)

    def test_replay_reproduces_execution_exactly(self):
        module = build_counter_race(iterations=4)
        recorder = RecordingScheduler(RandomScheduler(3))
        vm = VM(module, scheduler=recorder)
        vm.start("main")
        vm.run()
        original = self._final_counter(vm)
        original_steps = vm.step

        replayer = ReplayScheduler(recorder.trace)
        vm2 = VM(module, scheduler=replayer)
        vm2.start("main")
        vm2.run()
        assert self._final_counter(vm2) == original
        assert vm2.step == original_steps
        assert replayer.divergences == 0

    def test_replay_reproduces_lost_update(self):
        """Record a schedule that loses updates; replay loses them again."""
        module = build_counter_race(iterations=4)
        for seed in range(20):
            recorder = RecordingScheduler(RandomScheduler(seed))
            vm = VM(module, scheduler=recorder)
            vm.start("main")
            vm.run()
            if self._final_counter(vm) < 8:  # a buggy interleaving
                replayer = ReplayScheduler(recorder.trace)
                vm2 = VM(module, scheduler=replayer)
                vm2.start("main")
                vm2.run()
                assert self._final_counter(vm2) == self._final_counter(vm)
                return
        pytest.fail("no lossy schedule found to record")

    def test_divergence_counted_on_wrong_program(self):
        module = build_counter_race(iterations=2)
        recorder = RecordingScheduler(RandomScheduler(1))
        vm = VM(module, scheduler=recorder)
        vm.start("main")
        vm.run()
        other = build_counter_race(iterations=6)  # longer program
        replayer = ReplayScheduler(recorder.trace)
        vm2 = VM(other, scheduler=replayer)
        vm2.start("main")
        vm2.run()
        # replay ends early; the fallback finishes the run
        assert vm2.step > len(recorder.trace)
