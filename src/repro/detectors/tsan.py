"""A happens-before data race detector in the spirit of ThreadSanitizer.

The detector attaches to the VM as a trace observer and maintains FastTrack-
style shadow state: per-thread vector clocks, per-sync-object clocks, and per
byte of shared memory the last-write epoch plus the read epochs since.  Two
accesses race when they touch the same byte, at least one writes, and neither
happens-before the other.

Reports carry both call stacks.  A corrupted-address *watch list* implements
the paper's section 6.3 detector modification: once a race is found on an
address, every subsequent read of it is recorded (with its call stack) into
the report, and a write "sanitizes" the address.  This gives Algorithm 1 a
racy *load* to start from even for write-write races.

OWL's adhoc-sync annotations (section 5.1) are honoured exactly like TSan
markups: an annotated flag write acts as a release, the annotated read as an
acquire, and the annotated pair itself is not reported.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.detectors.annotations import AnnotationSet
from repro.detectors.report import AccessRecord, RaceReport, ReportSet
from repro.detectors.vectorclock import VectorClock
from repro.ir.module import Module
from repro.runtime.events import (
    AccessEvent,
    AccessRepeat,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.metrics import RunStats


class _ByteShadow:
    """Shadow state for one byte of shared memory."""

    __slots__ = ("last_write", "reads")

    def __init__(self):
        # (thread_id, clock, AccessRecord) of the most recent write.
        self.last_write: Optional[Tuple[int, int, AccessRecord]] = None
        # (thread_id, instruction uid) -> (clock, AccessRecord) for reads
        # since the last write.  Keyed per instruction, not just per thread,
        # so one write racing with several distinct racy loads yields one
        # report per static pair (the Figure 6 store races with both the
        # line-359 check and the line-346 use).
        self.reads: Dict[Tuple[int, int], Tuple[int, AccessRecord]] = {}


class TSanDetector(TraceObserver):
    """The happens-before engine; one instance per VM execution.

    Annotated pairs are indexed once, at construction: the pipeline builds
    the annotation set completely before the annotated re-run starts.
    """

    name = "tsan"

    def __init__(self, annotations: Optional[AnnotationSet] = None,
                 reports: Optional[ReportSet] = None):
        self.annotations = annotations or AnnotationSet()
        self.reports = reports if reports is not None else ReportSet()
        self._thread_clocks: Dict[int, VectorClock] = {}
        self._sync_clocks: Dict[int, VectorClock] = {}
        self._final_clocks: Dict[int, VectorClock] = {}
        self._shadow: Dict[int, _ByteShadow] = {}
        #: watched corrupted byte spans [lo, hi) -> reports collecting stacks
        self._watches: Dict[Tuple[int, int], List[RaceReport]] = {}
        #: byte -> how many watched spans cover it: an access that covers
        #: no watched byte skips the scan over ``_watches``
        self._watched_bytes: Dict[int, int] = {}
        #: instruction uid -> the uids it forms an annotated (read, write)
        #: pair with, so the race check for one access probes one set
        #: instead of building a pair key per candidate
        self._partners: Dict[int, Set[int]] = {}
        for annotation in self.annotations:
            read_uid = annotation.read_instruction.uid or 0
            write_uid = annotation.write_instruction.uid or 0
            self._partners.setdefault(read_uid, set()).add(write_uid)
            self._partners.setdefault(write_uid, set()).add(read_uid)
        self.access_count = 0

    # ------------------------------------------------------------------
    # clock helpers

    def _clock_of(self, thread_id: int) -> VectorClock:
        clock = self._thread_clocks.get(thread_id)
        if clock is None:
            clock = VectorClock({thread_id: 1})
            self._thread_clocks[thread_id] = clock
        return clock

    def _acquire(self, thread_id: int, address: int) -> None:
        """Join the clock last released on ``address`` into the thread's."""
        published = self._sync_clocks.get(address)
        clock = self._clock_of(thread_id)
        if published is not None:
            clock.join(published)

    def _release(self, thread_id: int, address: int) -> None:
        """Tick the thread's clock and publish a copy on ``address``."""
        clock = self._clock_of(thread_id)
        clock.tick(thread_id)
        self._sync_clocks[address] = clock.copy()

    # ------------------------------------------------------------------
    # observer hooks

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        if event.kind == ThreadLifecycleEvent.CREATE:
            parent = self._clock_of(event.thread_id)
            child = self._clock_of(event.other_thread_id)
            child.join(parent)
            parent.tick(event.thread_id)
        elif event.kind == ThreadLifecycleEvent.EXIT:
            self._final_clocks[event.thread_id] = self._clock_of(event.thread_id).copy()
        elif event.kind == ThreadLifecycleEvent.JOIN:
            final = self._final_clocks.get(event.other_thread_id)
            if final is not None:
                self._clock_of(event.thread_id).join(final)

    def on_sync(self, event: SyncEvent) -> None:
        if event.kind == SyncEvent.ACQUIRE:
            self._acquire(event.thread_id, event.address)
        else:
            self._release(event.thread_id, event.address)

    def on_access(self, event: AccessEvent) -> None:
        """Check every byte of one access in a single pass.

        Per byte, in address order: the shadow's last write races with
        the access unless it is the same thread's, happens-before it or
        forms an annotated pair with it; a write also races with every
        read since that write and then replaces them; a read is recorded
        under its (thread, instruction).  ``event.variable`` is resolved
        only when a report is filed.
        """
        self.access_count += 1
        thread_id = event.thread_id
        address = event.address
        is_write = event.is_write
        instruction = event.instruction
        partners = None
        release = False
        if self._partners:
            partners = self._partners.get(instruction.uid or 0)
            if is_write:
                release = self.annotations.is_release(instruction)
            elif self.annotations.is_acquire(instruction):
                # Acquire the clock published by the annotated flag write.
                self._acquire(thread_id, address)
        if event.is_atomic:
            if is_write:
                self._release(thread_id, address)
            else:
                self._acquire(thread_id, address)
            return
        clock = self._clock_of(thread_id)
        record = AccessRecord(
            instruction, thread_id, is_write, event.value,
            event.call_stack, address, step=event.step, size=event.size,
        )
        own_clock = clock.get(thread_id)
        # Service watches before race checking: a racy write that *creates* a
        # watch (below) must not immediately sanitize it, and the racy read
        # that constitutes a report is not also a "subsequent" read.
        watched = self._watched_bytes
        if watched:
            for byte in range(address, address + max(1, event.size)):
                if byte in watched:
                    self._service_watches(event, record)
                    break
        shadows = self._shadow
        read_key = (thread_id, instruction.uid or 0)
        for byte in range(address, address + event.size):
            shadow = shadows.get(byte)
            if shadow is None:
                shadow = shadows[byte] = _ByteShadow()
            write = shadow.last_write
            if (
                write is not None
                and write[0] != thread_id
                and not clock.ordered_with(write[0], write[1])
                and (partners is None
                     or (write[2].instruction.uid or 0) not in partners)
            ):
                self._report(write[2], record, event.variable)
            if is_write:
                for (other, _uid), (read_clock, read_record) in \
                        shadow.reads.items():
                    if (
                        other != thread_id
                        and not clock.ordered_with(other, read_clock)
                        and (partners is None
                             or (read_record.instruction.uid or 0)
                             not in partners)
                    ):
                        self._report(read_record, record, event.variable)
                shadow.last_write = (thread_id, own_clock, record)
                shadow.reads = {}
            else:
                shadow.reads[read_key] = (own_clock, record)
        if release:
            # Publish this thread's clock on the flag address (TSan markup).
            self._release(thread_id, address)

    def accepts_repeat(self, event: AccessEvent) -> bool:
        """Repeats of a plain read that touches no watched byte.

        A watched byte makes every read append to a report's
        ``subsequent_reads``, so those reads must arrive one by one.
        """
        if event.is_write or event.is_atomic:
            return False
        watched = self._watched_bytes
        if watched:
            for byte in range(event.address,
                              event.address + max(1, event.size)):
                if byte in watched:
                    return False
        return True

    def on_repeats(self, repeats: Sequence[AccessRepeat]) -> None:
        """Account each repeat as its ``count`` reads by one thread under
        an unchanged clock (nothing in a repeating loop ticks or joins a
        clock afresh).

        Each read counts as an access.  Its race check gives the first
        read's outcome again: a duplicate report at most, whose watch
        already exists.  An annotated acquire joins a clock the thread has
        already joined.  Each shadow byte keeps the last read's record,
        because a later report carries that record's step.
        """
        shadows = self._shadow
        for repeat in repeats:
            event = repeat.last
            thread_id = event.thread_id
            self.access_count += repeat.count
            record = AccessRecord(
                event.instruction, thread_id, False, event.value,
                event.call_stack, event.address, step=event.step,
                size=event.size,
            )
            entry = (self._clock_of(thread_id).get(thread_id), record)
            key = (thread_id, event.instruction.uid or 0)
            for byte in range(event.address, event.address + event.size):
                shadows[byte].reads[key] = entry

    # ------------------------------------------------------------------
    # race checking

    def _report(self, prior: AccessRecord, current: AccessRecord,
                variable: Optional[str]) -> None:
        report = RaceReport(prior, current, variable=variable, detector=self.name)
        if self.reports.add(report):
            self._watch(report)
        else:
            # Already known statically: still feed the watch list.
            known = self.reports.get(report.static_key)
            if known is not None:
                self._watch(known)

    # ------------------------------------------------------------------
    # corrupted-address watch list (paper section 6.3)

    def _watch(self, report: RaceReport) -> None:
        first_lo, first_hi = report.first.byte_range
        second_lo, second_hi = report.second.byte_range
        span = (min(first_lo, second_lo), max(first_hi, second_hi))
        watchers = self._watches.get(span)
        if watchers is None:
            watchers = self._watches[span] = []
            watched = self._watched_bytes
            for byte in range(*span):
                watched[byte] = watched.get(byte, 0) + 1
        if report not in watchers:
            watchers.append(report)

    def _service_watches(self, event: AccessEvent, record: AccessRecord) -> None:
        """Feed or sanitize the watches an access overlaps (the caller has
        seen it touch a watched byte)."""
        lo = event.address
        hi = event.address + max(1, event.size)
        # Match on byte overlap, not base-address equality: a wide read (or
        # sanitizing write) that covers the watched span at a different base
        # address still touches the corrupted bytes.
        touched = [span for span in self._watches if span[0] < hi and lo < span[1]]
        if event.is_write:
            # A write sanitizes the corrupted value; stop watching.
            watched = self._watched_bytes
            for span in touched:
                del self._watches[span]
                for byte in range(*span):
                    if watched[byte] == 1:
                        del watched[byte]
                    else:
                        watched[byte] -= 1
            return
        for span in touched:
            for report in self._watches[span]:
                if record.instruction is not report.first.instruction and \
                        record.instruction is not report.second.instruction:
                    report.subsequent_reads.append(record)


def run_tsan(
    module: Module,
    entry: str = "main",
    inputs: Optional[Dict] = None,
    seeds: Sequence[int] = range(10),
    annotations: Optional[AnnotationSet] = None,
    max_steps: int = 200_000,
    entry_args: Sequence[int] = (),
) -> Tuple[ReportSet, List[RunStats]]:
    """Run the detector over several schedules and merge the reports.

    Each seed is one program execution under a random schedule — the
    equivalent of repeatedly running a TSan-instrumented binary on the same
    testing workload.  This is the plain serial sweep; process pools, the
    result cache, exploration and the per-seed options belong to the OWL
    pipeline's sweep driver over :class:`repro.detectors.seed.SeedJob`.
    """
    from repro.detectors.annotations import annotations_to_payload
    from repro.detectors.seed import SeedJob, run_seeds

    job = SeedJob(kind="tsan", entry=entry, inputs=inputs,
                  entry_args=tuple(entry_args), max_steps=max_steps,
                  annotations=annotations_to_payload(annotations))
    return run_seeds(module, job, seeds)
