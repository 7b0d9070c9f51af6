"""Tests for the dynamic race verifier and the vulnerability verifier."""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.apps.libsafe import build_module as build_libsafe
from repro.apps.libsafe import exploit_inputs, libsafe_spec, workload_inputs
from repro.apps.registry import spec_by_name
from repro.detectors import run_tsan
from repro.detectors.report import AccessRecord, RaceReport, report_to_payload
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I32, I64, I8, U64, ptr
from repro.owl.batch import (
    verify_job,
    verify_report_item,
    verify_vuln_item,
    vuln_job,
)
from repro.owl.pipeline import OwlPipeline
from repro.owl.race_verifier import DynamicRaceVerifier, Trunk
from repro.owl.vuln_analysis import VulnerabilityAnalyzer
from repro.owl.vuln_verifier import DynamicVulnerabilityVerifier
from repro.runtime.diffcheck import diff_verifiers
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.thread import ThreadState
from repro.spec import ProgramSpec
from tests.helpers import build_counter_race


class TestRaceVerifier:
    def test_real_race_verified_with_hints(self):
        module = build_counter_race(iterations=3)
        reports, _ = run_tsan(module, seeds=range(6))
        report = next(iter(reports))
        verifier = DynamicRaceVerifier(module, seeds=range(6))
        verification = verifier.verify(report)
        assert verification.verified
        hints = verification.hints
        assert hints is not None
        assert "counter" in (hints.variable or "")
        assert hints.write_value is not None

    def test_verified_report_tagged(self):
        module = build_counter_race(iterations=3)
        reports, _ = run_tsan(module, seeds=range(6))
        report = next(iter(reports))
        DynamicRaceVerifier(module, seeds=range(6)).verify(report)
        assert DynamicRaceVerifier.TAG in report.tags

    def test_null_write_hint(self):
        """The hint flags a NULL store: 'whether a NULL pointer difference
        can be triggered ... because of the race' (section 5.2)."""
        b = IRBuilder(Module("m"))
        pointer = b.global_var("p", U64, 0x1234)
        b.begin_function("reader", I64, [("arg", ptr(I8))], source_file="n.c")
        b.ret(b.load(pointer, line=1), line=1)
        b.end_function()
        b.begin_function("nuller", I32, [("arg", ptr(I8))], source_file="n.c")
        b.store(0, pointer, line=2)
        b.ret(b.i32(0), line=3)
        b.end_function()
        b.begin_function("main", I32, [], source_file="n.c")
        t1 = b.call("thread_create", [b.module.get_function("reader"),
                                      b.null()], line=4)
        t2 = b.call("thread_create", [b.module.get_function("nuller"),
                                      b.null()], line=5)
        b.call("thread_join", [t1], line=6)
        b.call("thread_join", [t2], line=7)
        b.ret(b.i32(0), line=8)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(6))
        report = next(iter(reports))
        verification = DynamicRaceVerifier(b.module, seeds=range(6)).verify(report)
        assert verification.verified
        assert verification.hints.null_write

    def test_publish_race_eliminated(self):
        """The racy-publish pattern can never co-halt on one address."""
        from repro.apps.support import add_publish_races

        b = IRBuilder(Module("m"))
        producer, consumer = add_publish_races(b, 1, "pub.c", iterations=3)
        b.begin_function("main", I32, [], source_file="pub.c")
        t1 = b.call("thread_create", [b.module.get_function(producer),
                                      b.null()], line=1)
        t2 = b.call("thread_create", [b.module.get_function(consumer),
                                      b.null()], line=2)
        b.call("thread_join", [t1], line=3)
        b.call("thread_join", [t2], line=4)
        b.ret(b.i32(0), line=5)
        b.end_function()
        verify_module(b.module)
        reports, _ = run_tsan(b.module, seeds=range(10))
        assert len(reports) >= 1
        verifier = DynamicRaceVerifier(b.module, seeds=range(4))
        for report in reports:
            assert not verifier.verify(report).verified

    def test_libsafe_dying_race_verified(self):
        module = build_libsafe()
        reports, _ = run_tsan(module, inputs=workload_inputs(), seeds=range(8))
        report = next(r for r in reports if "dying" in (r.variable or ""))
        verifier = DynamicRaceVerifier(module, inputs=workload_inputs(),
                                       seeds=range(8))
        verification = verifier.verify(report)
        assert verification.verified
        assert verification.hints.write_value == 1  # dying = 1


class TestVulnVerifier:
    def _libsafe_vuln(self):
        module = build_libsafe()
        reports, _ = run_tsan(module, inputs=workload_inputs(), seeds=range(8))
        report = next(r for r in reports if "dying" in (r.variable or ""))
        vulns = VulnerabilityAnalyzer(module).analyze_report(report)
        return module, vulns[0]

    def test_attack_realized_with_subtle_inputs(self):
        module, vuln = self._libsafe_vuln()
        spec = libsafe_spec()
        attack = spec.attacks[0]
        # NOTE: the verifier must execute the *same module instance* the
        # analyzer produced the report for (instruction identity is the
        # breakpoint key), so no spec-based vm_factory here.
        verifier = DynamicVulnerabilityVerifier(
            module, inputs=attack.subtle_inputs, seeds=range(10),
            attack_predicate=lambda vm: vm.world.executed("/bin/sh"),
            racing_order=("write-first", ""),
        )
        outcome = verifier.verify(vuln)
        assert outcome.attack_realized
        assert outcome.site_reached

    def test_naive_inputs_do_not_realize(self):
        module, vuln = self._libsafe_vuln()
        spec = libsafe_spec()
        attack = spec.attacks[0]
        verifier = DynamicVulnerabilityVerifier(
            module, inputs=attack.naive_inputs, seeds=range(4),
            attack_predicate=lambda vm: vm.world.executed("/bin/sh"),
        )
        outcome = verifier.verify(vuln)
        assert not outcome.attack_realized

    def test_describe_mentions_state(self):
        module, vuln = self._libsafe_vuln()
        spec = libsafe_spec()
        attack = spec.attacks[0]
        verifier = DynamicVulnerabilityVerifier(
            module, inputs=attack.subtle_inputs, seeds=range(10),
            attack_predicate=lambda vm: vm.world.executed("/bin/sh"),
        )
        outcome = verifier.verify(vuln)
        assert "REALIZED" in outcome.describe()


@contextmanager
def run_vms():
    """Weak references to every VM ``VM.run`` is called on, with the
    cyclic collector off: what is freed, refcounting alone freed."""
    refs = []
    run = VM.run

    def recording_run(vm, *args, **kwargs):
        refs.append(weakref.ref(vm))
        return run(vm, *args, **kwargs)

    enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(VM, "run", recording_run)
            yield refs
    finally:
        if enabled:
            gc.enable()


class TestRunsReleaseTheirVMs:
    """A finished verification run's VM goes with its last reference: the
    run detaches its debugger, which would otherwise keep a cycle."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        spec = spec_by_name("apache_log")
        return spec, OwlPipeline(spec).run()

    def test_race_runs_free_their_vms(self, pipeline):
        spec, result = pipeline
        trunks = {}
        for report in result.annotated_reports:
            job = verify_job(spec, report=report_to_payload(report))
            for shared in (None, trunks):
                with run_vms() as refs:
                    verify_report_item(job, spec=spec, trunks=shared)
                    assert refs
                    assert all(ref() is None for ref in refs)
        assert any(trunk.served for trunk in trunks.values())

    def test_vulnerability_runs_free_their_vms(self, pipeline):
        spec, result = pipeline
        assert result.vulnerabilities
        for vulnerability in result.vulnerabilities:
            with run_vms() as refs:
                verify_vuln_item(vuln_job(spec, vulnerability), spec=spec)
                assert refs
                assert all(ref() is None for ref in refs)


@contextmanager
def recorded_runs():
    """Per run (a VM ``VM.run`` is called on), every return of ``VM.run``:
    reason, step and the halted threads with their instructions."""
    runs = {}
    run = VM.run

    def recording_run(vm, *args, **kwargs):
        result = run(vm, *args, **kwargs)
        halted = tuple((t.thread_id, t.current_instruction().uid)
                       for t in vm.threads.values()
                       if t.state is ThreadState.HALTED)
        runs.setdefault(vm, []).append((result.reason, vm.step, halted))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VM, "run", recording_run)
        yield runs


def verify_both_ways(spec, reports):
    """Each report's item output and runs, fresh and through shared
    trunks (in report order), and how many of its runs took a trunk over."""
    trunks = {}
    sides = {"fresh": [], "trunk": []}
    served = []
    for report in reports:
        job = verify_job(spec, report=report_to_payload(report))
        before = sum(trunk.served for trunk in trunks.values())
        for side, shared in (("fresh", None), ("trunk", trunks)):
            with recorded_runs() as runs:
                output = verify_report_item(job, spec=spec, trunks=shared)
            sides[side].append((output, list(runs.values())))
        served.append(sum(trunk.served for trunk in trunks.values())
                      - before)
    return sides, served


def gated_program():
    """A program whose ``cold`` store and load sit behind a branch no
    worker takes, as a spec, with two hand-made reports: ``late`` (the
    last counter store racing with itself) and ``never`` (the cold pair,
    which never runs)."""
    b = IRBuilder(Module("gated"))
    gate = b.global_var("gate", I64, 0)
    cold = b.global_var("cold", I64, 0)
    counter = b.global_var("counter", I64, 0)
    b.begin_function("worker", I32, [("arg", ptr(I8))],
                     source_file="g.c")
    shut = b.icmp("eq", b.load(gate, line=1), 0, line=1)
    b.cond_br(shut, "work", "cold", line=1)
    b.at("cold")
    b.store(1, cold, line=2)
    b.load(cold, line=3)
    b.br("work", line=3)
    b.at("work")
    for line in (4, 5, 6):
        b.store(b.add(b.load(counter, line=line), 1, line=line),
                counter, line=line)
    b.ret(b.i32(0), line=7)
    b.end_function()
    b.begin_function("main", I32, [], source_file="g.c")
    workers = [b.call("thread_create",
                      [b.module.get_function("worker"), b.null()],
                      line=8 + i) for i in range(2)]
    for i, worker in enumerate(workers):
        b.call("thread_join", [worker], line=10 + i)
    b.ret(b.i32(0), line=12)
    b.end_function()
    verify_module(b.module)
    module = b.module
    spec = ProgramSpec("gated", lambda: module, verify_seeds=range(6),
                       max_steps=5_000)
    counter_store = module.find_instructions(filename="g.c", line=6,
                                             opcode="store")[0]
    cold_store, cold_load = (
        module.find_instructions(filename="g.c", line=line,
                                 opcode=opcode)[0]
        for line, opcode in ((2, "store"), (3, "load")))

    def report(first, second):
        return RaceReport(
            AccessRecord(first, 1, True, 0, (), 0),
            AccessRecord(second, 2, True, 0, (), 0))

    late = report(counter_store, counter_store)
    never = report(cold_store, cold_load)
    return spec, late, never


class TestTrunks:
    """A run that takes over its seed's trunk is the fresh run: the same
    halts, early stop, outcome and step count."""

    @pytest.mark.parametrize("name", ["memcached", "apache"])
    def test_trunk_served_runs_are_fresh_runs(self, name):
        spec = spec_by_name(name)
        reports = list(OwlPipeline(spec).run().annotated_reports)
        sides, served = verify_both_ways(spec, reports)
        assert sides["trunk"] == sides["fresh"]
        runs = sum(output["runs_used"] for output, _ in sides["fresh"])
        assert 0 < sum(served) < runs

    def test_a_run_whose_early_stop_holds_starts_fresh(self):
        """The racing pair sits behind a branch no worker takes: it never
        runs, so only the early stop tells that a fresh run would have
        ended before the trunk's step."""
        spec, late, never = gated_program()
        sides, served = verify_both_ways(spec, [late, never])
        assert sides["trunk"] == sides["fresh"]
        (late_output, late_runs), (never_output, never_runs) = sides["trunk"]
        # the seeds whose trunk the late report advanced run fresh; the
        # other trunks are still at step 0, where any run takes over
        advanced = late_output["runs_used"]
        assert served == [advanced, 6 - advanced]
        assert all(run[0][0] == ExecutionResult.BREAKPOINT
                   for run in late_runs)
        assert never_output["runs_stopped_early"] == 6
        assert [run[-1][0] for run in never_runs] == \
            [ExecutionResult.OUT_OF_REACH] * 6

    def test_debugger_oracle_catches_a_trunk_that_ignores_the_early_stop(
            self, monkeypatch):
        """A trunk that serves a run past its early stop ends the run
        later than a fresh run does: no halt tells, so the oracle must
        compare each trunk-served run with a fresh shipped one."""
        spec, late, never = gated_program()
        assert diff_verifiers(spec, [late, never]).identical
        monkeypatch.setattr(
            Trunk, "serves", lambda trunk, reach: (
                trunk.vm is not None
                and trunk.trail.isdisjoint(reach.targets)))
        diff = diff_verifiers(spec, [late, never])
        assert [divergence.field for divergence in diff.divergences] == \
            ["race[%s].trunk_runs" % never.uid]
