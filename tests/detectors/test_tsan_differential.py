"""The one-pass TSan engine against the per-byte engine it replaced.

:class:`PerByteModel` is the happens-before engine as it stood before
:meth:`repro.detectors.tsan.TSanDetector.on_access` became a single pass:
one ``_check_byte`` call per accessed byte, ``event.variable`` read once
per byte, the annotated-pair test building a pair key per candidate and
annotated clocks joined and published through ``SyncEvent``s.  Both
engines observe the same VM, so they see one event stream; their report
payloads (reports, records, watch lists and their order) and access
counts must be equal.  The model accepts every repeat of a skipped loop
and processes each event it stands for, so where the engine accepts too
(linux's budget-bound spin) the VM skips, and the engine's
``on_repeats`` is held to the per-event model.

``tools/diff_oracle.py`` cannot catch a detector change: both of its
sides run the same detector.
"""

from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.apps.registry import spec_by_name
from repro.ir import IRBuilder, Module, verify_module
from repro.ir.types import I16, I32, I64, I8, ArrayType, ptr
from repro.spec import ProgramSpec
from repro.detectors.annotations import (
    AnnotationSet,
    annotations_from_payload,
    annotations_to_payload,
)
from repro.detectors.report import (
    AccessRecord,
    RaceReport,
    ReportSet,
    reports_to_payloads,
)
from repro.detectors.seed import DETECTORS, SeedJob, make_scheduler
from repro.detectors.vectorclock import VectorClock
from repro.owl.adhoc import AdhocSyncDetector
from repro.runtime.events import (
    AccessEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.interpreter import VM


class _ByteShadow:
    __slots__ = ("last_write", "reads")

    def __init__(self):
        self.last_write: Optional[Tuple[int, int, AccessRecord]] = None
        self.reads: Dict[Tuple[int, int], Tuple[int, AccessRecord]] = {}


class PerByteModel(TraceObserver):
    """The per-byte happens-before engine, kept as the reference."""

    def __init__(self, name: str, annotations: Optional[AnnotationSet]):
        self.name = name
        self.annotations = annotations or AnnotationSet()
        self.reports = ReportSet()
        self._thread_clocks: Dict[int, VectorClock] = {}
        self._sync_clocks: Dict[int, VectorClock] = {}
        self._final_clocks: Dict[int, VectorClock] = {}
        self._shadow: Dict[int, _ByteShadow] = {}
        self._watches: Dict[Tuple[int, int], List[RaceReport]] = {}
        self._annotated_pairs: Set[Tuple[int, int]] = {
            self._pair_key(annotation.read_instruction.uid or 0,
                           annotation.write_instruction.uid or 0)
            for annotation in self.annotations
        }
        self.access_count = 0

    @staticmethod
    def _pair_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def _clock_of(self, thread_id: int) -> VectorClock:
        clock = self._thread_clocks.get(thread_id)
        if clock is None:
            clock = VectorClock({thread_id: 1})
            self._thread_clocks[thread_id] = clock
        return clock

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        if event.kind == ThreadLifecycleEvent.CREATE:
            parent = self._clock_of(event.thread_id)
            child = self._clock_of(event.other_thread_id)
            child.join(parent)
            parent.tick(event.thread_id)
        elif event.kind == ThreadLifecycleEvent.EXIT:
            self._final_clocks[event.thread_id] = \
                self._clock_of(event.thread_id).copy()
        elif event.kind == ThreadLifecycleEvent.JOIN:
            final = self._final_clocks.get(event.other_thread_id)
            if final is not None:
                self._clock_of(event.thread_id).join(final)

    def on_sync(self, event: SyncEvent) -> None:
        clock = self._clock_of(event.thread_id)
        if event.kind == SyncEvent.ACQUIRE:
            published = self._sync_clocks.get(event.address)
            if published is not None:
                clock.join(published)
        else:
            clock.tick(event.thread_id)
            self._sync_clocks[event.address] = clock.copy()

    def accepts_repeat(self, event: AccessEvent) -> bool:
        # the base on_repeats hands each event to on_access
        return True

    def on_access(self, event: AccessEvent) -> None:
        self.access_count += 1
        annotated_release = event.is_write and self.annotations.is_release(
            event.instruction)
        annotated_acquire = (not event.is_write) and \
            self.annotations.is_acquire(event.instruction)
        if annotated_acquire:
            self.on_sync(SyncEvent(
                event.thread_id, event.step, SyncEvent.ACQUIRE, event.address))
        if event.is_atomic:
            kind = SyncEvent.RELEASE if event.is_write else SyncEvent.ACQUIRE
            self.on_sync(SyncEvent(event.thread_id, event.step, kind,
                                   event.address))
            return
        clock = self._clock_of(event.thread_id)
        record = AccessRecord(
            event.instruction, event.thread_id, event.is_write, event.value,
            event.call_stack, event.address, step=event.step, size=event.size,
        )
        own_clock = clock.get(event.thread_id)
        self._service_watches(event, record)
        for offset in range(event.size):
            self._check_byte(event.address + offset, record, clock, own_clock,
                             event.variable)
        if annotated_release:
            self.on_sync(SyncEvent(
                event.thread_id, event.step, SyncEvent.RELEASE, event.address))

    def _annotated_pair(self, a: AccessRecord, b: AccessRecord) -> bool:
        if not self._annotated_pairs:
            return False
        return self._pair_key(a.instruction.uid or 0,
                              b.instruction.uid or 0) in self._annotated_pairs

    def _check_byte(self, address, record, clock, own_clock, variable):
        shadow = self._shadow.get(address)
        if shadow is None:
            shadow = _ByteShadow()
            self._shadow[address] = shadow
        write = shadow.last_write
        if (
            write is not None
            and write[0] != record.thread_id
            and not clock.ordered_with(write[0], write[1])
            and not self._annotated_pair(write[2], record)
        ):
            self._report(write[2], record, variable)
        if record.is_write:
            for (thread_id, _uid), (read_clock, read_record) in \
                    shadow.reads.items():
                if (
                    thread_id != record.thread_id
                    and not clock.ordered_with(thread_id, read_clock)
                    and not self._annotated_pair(read_record, record)
                ):
                    self._report(read_record, record, variable)
            shadow.last_write = (record.thread_id, own_clock, record)
            shadow.reads = {}
        else:
            key = (record.thread_id, record.instruction.uid or 0)
            shadow.reads[key] = (own_clock, record)

    def _report(self, prior, current, variable) -> None:
        report = RaceReport(prior, current, variable=variable,
                            detector=self.name)
        if self.reports.add(report):
            self._watch(report)
        else:
            known = self.reports.get(report.static_key)
            if known is not None:
                self._watch(known)

    def _watch(self, report: RaceReport) -> None:
        first_lo, first_hi = report.first.byte_range
        second_lo, second_hi = report.second.byte_range
        span = (min(first_lo, second_lo), max(first_hi, second_hi))
        watchers = self._watches.setdefault(span, [])
        if report not in watchers:
            watchers.append(report)

    def _service_watches(self, event, record) -> None:
        if not self._watches:
            return
        lo = event.address
        hi = event.address + max(1, event.size)
        touched = [span for span in self._watches
                   if span[0] < hi and lo < span[1]]
        if not touched:
            return
        if event.is_write:
            for span in touched:
                del self._watches[span]
            return
        for span in touched:
            for report in self._watches[span]:
                if record.instruction is not report.first.instruction and \
                        record.instruction is not report.second.instruction:
                    report.subsequent_reads.append(record)


def run_both(spec, seed: int, annotations: Optional[Tuple]):
    """One seed of ``spec``'s detection with both engines on one VM;
    returns them and the steps the VM skipped."""
    module = spec.build()
    job = SeedJob(kind=spec.detector, entry=spec.entry,
                  inputs=spec.workload_inputs, max_steps=spec.max_steps,
                  seed=seed, annotations=annotations)
    vm = VM(module, scheduler=make_scheduler(job), inputs=job.inputs,
            max_steps=job.max_steps, seed=seed)
    engine = DETECTORS[job.kind](
        annotations=annotations_from_payload(module, annotations),
        reports=ReportSet())
    model = PerByteModel(engine.name,
                         annotations_from_payload(module, annotations))
    vm.add_observer(model)
    vm.add_observer(engine)
    skipped = vm.fuse_engine.skipped_steps
    vm.start(job.entry, job.entry_args)
    vm.run()
    return engine, model, vm.fuse_engine.skipped_steps - skipped


def assert_engines_agree(spec, seeds, annotations, skips=False):
    """Both engines agree on every seed; returns the merged reports.
    With ``skips``, every seed's VM must have skipped a loop."""
    merged = ReportSet()
    for seed in seeds:
        engine, model, skipped = run_both(spec, seed, annotations)
        assert bool(skipped) >= skips, seed
        assert engine.access_count == model.access_count, seed
        assert engine.access_count > 0
        assert reports_to_payloads(engine.reports) == \
            reports_to_payloads(model.reports), seed
        merged.merge(engine.reports)
    return merged


def build_mixed_widths() -> Module:
    """Three threads access one 16-byte buffer through 1-, 2-, 4- and
    8-byte pointers at overlapping offsets, so neighbouring bytes hold
    different shadows and every byte of an access can decide a report."""
    module = Module("mixed_widths")
    b = IRBuilder(module)
    buf = b.global_var("buf", ArrayType(I8, 16))
    widths = {1: I8, 2: I16, 4: I32, 8: I64}
    plans = {
        "w1": [("store", 8, 0), ("load", 2, 6), ("store", 1, 3),
               ("load", 4, 12)],
        "w2": [("load", 4, 2), ("store", 2, 4), ("load", 8, 8),
               ("store", 1, 15)],
        "w3": [("store", 4, 6), ("load", 1, 1), ("store", 8, 8),
               ("load", 4, 0)],
    }
    line = 1
    for name, accesses in plans.items():
        b.begin_function(name, I32, [("arg", ptr(I8))], source_file="m.c")
        base = b.cast("bitcast", buf, ptr(I8), line=line)
        for kind, width, offset in accesses:
            line += 1
            pointer = b.cast("bitcast", b.index(base, offset, line=line),
                             ptr(widths[width]), line=line)
            if kind == "load":
                b.load(pointer, line=line)
            else:
                b.store(b.const(widths[width], line), pointer, line=line)
        b.ret(b.i32(0), line=line)
        b.end_function()
    b.begin_function("main", I32, [], source_file="m.c")
    handles = [b.call("thread_create", [module.get_function(name), b.null()],
                      line=100 + index)
               for index, name in enumerate(plans)]
    for index, handle in enumerate(handles):
        b.call("thread_join", [handle], line=110 + index)
    b.ret(b.i32(0), line=120)
    b.end_function()
    verify_module(module)
    return module


def build_spin_wait(delays=(37, 90, 151)) -> Module:
    """Waiters spin on a flag, each raised by a setter that sleeps first.

    While the setters sleep, the spinning waiter runs alone and the VM
    skips its loop; each setter's store then races with the last spin
    read, whose record (step included) the report carries.
    """
    module = Module("spin_wait")
    b = IRBuilder(module)
    names = []
    for index, delay in enumerate(delays):
        flag = b.global_var("flag%d" % index, I32, 0)
        b.begin_function("setter%d" % index, I32, [("arg", ptr(I8))],
                         source_file="s.c")
        b.call("usleep", [delay], line=10 * index + 1)
        b.store(1, flag, line=10 * index + 2)
        b.ret(b.i32(0), line=10 * index + 3)
        b.end_function()
        b.begin_function("waiter%d" % index, I32, [("arg", ptr(I8))],
                         source_file="s.c")
        b.br("spin", line=10 * index + 4)
        b.at("spin")
        value = b.load(flag, line=10 * index + 5)
        done = b.icmp("ne", value, 0, line=10 * index + 5)
        b.cond_br(done, "after", "spin", line=10 * index + 5)
        b.at("after")
        b.ret(b.i32(0), line=10 * index + 6)
        b.end_function()
        names += ["setter%d" % index, "waiter%d" % index]
    b.begin_function("main", I32, [], source_file="s.c")
    for index in range(len(delays)):
        handles = [b.call("thread_create", [module.get_function(name),
                                            b.null()], line=100 + index)
                   for name in names[2 * index:2 * index + 2]]
        for handle in handles:
            b.call("thread_join", [handle], line=110 + index)
    b.ret(b.i32(0), line=120)
    b.end_function()
    verify_module(module)
    return module


#: (spec, seeds compared, extra seeds whose raw reports feed the
#: annotations, whether every compared seed skips): linux's 8 and 11
#: run to the step budget in the ready_waiter spin, which the VM skips
#: to the end of its grant, raw and annotated; its short seeds 0-5 find
#: the adhoc flag races
CASES = {
    "linux": (lambda: spec_by_name("linux"), (8, 11), range(6), True),
    "apache": (lambda: spec_by_name("apache"), (0, 1, 2), (), False),
    "memcached": (lambda: spec_by_name("memcached"), (0, 1, 2), (), False),
    "mysql": (lambda: spec_by_name("mysql"), (0, 1, 2), (), False),
    "mixed_widths": (
        lambda: ProgramSpec("mixed_widths", build_mixed_widths,
                            max_steps=10_000),
        range(8), (), False),
    "spin_wait": (
        lambda: ProgramSpec("spin_wait", build_spin_wait, max_steps=10_000,
                            paper_adhoc_syncs=3),
        range(8), (), True),
}


@pytest.mark.parametrize("program", sorted(CASES))
def test_one_pass_engine_equals_the_per_byte_model(program):
    make_spec, seeds, annotation_seeds, skips = CASES[program]
    spec = make_spec()
    raw = assert_engines_agree(spec, seeds, None, skips)
    for seed in annotation_seeds:
        raw.merge(run_both(spec, seed, None)[0].reports)
    assert len(raw) > 0
    annotations = AdhocSyncDetector().analyze(raw)
    # Table 3: memcached has no adhoc synchronization, the others do
    # (mixed_widths has none either)
    assert bool(len(annotations)) == bool(spec.paper_adhoc_syncs)
    if len(annotations):
        assert_engines_agree(spec, seeds, annotations_to_payload(annotations),
                             skips)
