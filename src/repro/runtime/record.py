"""Record/replay execution backbone (PRES-style, the paper's reference [60]).

The VM is deterministic given the module, the workload inputs, the VM seed
and the per-step schedule decisions — so one *recorded* execution can be
re-executed later, bit-identically, with any :class:`TraceObserver` (a
TSan/SKI detector, the audit monitor, the differential-oracle recorder)
attached.  That is the non-intrusive detection story of Ronsse & De
Bosschere: record once near reference speed, analyze offline as often as
needed.

A recording is a :class:`ScheduleLog` — a compact, versioned event log:

- a **header** carrying the record schema, program name, IR digest
  (:func:`repro.owl.cache.module_digest` of the module the run executed),
  VM seed, scheduler label, entry point/arguments, step budget and the
  observed steps/reason — everything replay needs to refuse a mismatched
  module *loudly* instead of drifting silently;
- the **schedule decisions**, run-length encoded as ``(thread_id, count)``
  quanta (a RandomScheduler switches threads nearly every step, so the
  pairs are further packed varint+zlib+base64 — a few hundred bytes per
  seed against multi-KB detect cache payloads);
- the **sync-acquisition order** (step, thread, address of every lock/
  flag acquire) and the **thread spawn/join points**, used as replay
  checkpoints: a replay that acquires a different lock order or spawns a
  different thread tree is counted divergent even if its schedule happened
  to stay applicable.

Logs round-trip through JSON payloads (for the batch workers and the
content-addressed result cache) and through a JSON-lines file format (for
``owl record`` / ``owl replay``).  The replay invariant, enforced by
:func:`replay_log` and guarded end-to-end by the diffcheck oracle
(``tools/replay_fidelity.py``): **a log replayed on the same IR digest is
bit-identical or loudly divergent** — never silently different.
"""

from __future__ import annotations

import base64
import time
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro import jsonl
from repro.runtime.events import (
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.interpreter import VM, ExecutionResult
from repro.runtime.scheduler import (
    RandomScheduler,
    ReplayScheduler,
    Scheduler,
)
from repro.runtime.thread import ThreadContext

RECORD_SCHEMA = 1

#: thread-lifecycle kinds that act as replay checkpoints, with their packed
#: integer codes (spawn/join points; START/EXIT are derivable from these)
_THREAD_KIND_CODES = {
    ThreadLifecycleEvent.CREATE: 0,
    ThreadLifecycleEvent.JOIN: 1,
}
_THREAD_KIND_NAMES = {code: kind for kind, code in _THREAD_KIND_CODES.items()}


def module_ir_digest(module) -> str:
    """The module digest replay validates against (same as the cache's)."""
    from repro.owl.cache import module_digest

    return module_digest(module)


# ---------------------------------------------------------------------------
# compact integer packing: varint byte stream -> zlib -> base64 text


def _pack_ints(values: Sequence[int]) -> str:
    """Pack non-negative ints as a base64(zlib(varint)) string."""
    buffer = bytearray()
    for value in values:
        if value < 0:
            raise ValueError("cannot pack negative value %d" % value)
        while True:
            byte = value & 0x7F
            value >>= 7
            buffer.append(byte | (0x80 if value else 0))
            if not value:
                break
    return base64.b64encode(zlib.compress(bytes(buffer), 9)).decode("ascii")


def _unpack_ints(text: str) -> List[int]:
    """Inverse of :func:`_pack_ints`."""
    data = zlib.decompress(base64.b64decode(text.encode("ascii")))
    values: List[int] = []
    value = 0
    shift = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(value)
            value = 0
            shift = 0
    if shift:
        raise ValueError("truncated varint stream")
    return values


def _pack_tuples(tuples: Sequence[Tuple[int, ...]], width: int) -> str:
    flat: List[int] = []
    for item in tuples:
        if len(item) != width:
            raise ValueError("expected %d-tuples, got %r" % (width, item))
        flat.extend(item)
    return _pack_ints(flat)


def _unpack_tuples(text: str, width: int) -> List[Tuple[int, ...]]:
    flat = _unpack_ints(text)
    if len(flat) % width:
        raise ValueError("packed stream is not a multiple of %d" % width)
    return [tuple(flat[i:i + width]) for i in range(0, len(flat), width)]


# ---------------------------------------------------------------------------
# the log


class ScheduleLog:
    """One recorded execution: schedule quanta, sync order, thread tree."""

    def __init__(
        self,
        program: str,
        ir_digest: str,
        seed: int,
        schedule: Sequence[Tuple[int, int]],
        syncs: Sequence[Tuple[int, int, int]] = (),
        threads: Sequence[Tuple[int, int, int, int]] = (),
        scheduler: str = "random",
        entry: str = "main",
        entry_args: Sequence[int] = (),
        max_steps: int = 200_000,
        steps: int = 0,
        reason: str = "",
        schema: int = RECORD_SCHEMA,
    ):
        self.schema = schema
        self.program = program
        self.ir_digest = ir_digest
        self.seed = seed
        self.scheduler = scheduler
        self.entry = entry
        self.entry_args = tuple(entry_args)
        self.max_steps = max_steps
        self.steps = steps
        self.reason = reason
        #: run-length-encoded schedule decisions: ``(thread_id, count)``
        self.schedule: List[Tuple[int, int]] = [
            (int(tid), int(count)) for tid, count in schedule
        ]
        #: sync-acquisition order: ``(step, thread_id, address)``
        self.syncs: List[Tuple[int, int, int]] = [
            tuple(int(v) for v in item) for item in syncs
        ]
        #: spawn/join points: ``(step, kind_code, thread_id, other_id)``
        self.threads: List[Tuple[int, int, int, int]] = [
            tuple(int(v) for v in item) for item in threads
        ]

    @property
    def decisions(self) -> int:
        """Total schedule decisions recorded (sum of quantum lengths)."""
        return sum(count for _tid, count in self.schedule)

    def expand_schedule(self) -> List[int]:
        """The flat per-step thread-id trace a ReplayScheduler consumes."""
        trace: List[int] = []
        for tid, count in self.schedule:
            trace.extend([tid] * count)
        return trace

    # ------------------------------------------------------------------
    # payload round-trip (batch workers + result cache)

    def to_payload(self) -> Dict:
        return {
            "schema": self.schema,
            "program": self.program,
            "ir_digest": self.ir_digest,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "entry": self.entry,
            "entry_args": list(self.entry_args),
            "max_steps": self.max_steps,
            "steps": self.steps,
            "decisions": self.decisions,
            "reason": self.reason,
            "schedule": _pack_tuples(self.schedule, 2),
            "syncs": _pack_tuples(self.syncs, 3),
            "threads": _pack_tuples(self.threads, 4),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "ScheduleLog":
        schema = payload.get("schema")
        if schema != RECORD_SCHEMA:
            raise ValueError(
                "schedule log declares unsupported record schema %r "
                "(supported: %d)" % (schema, RECORD_SCHEMA))
        return cls(
            program=payload["program"],
            ir_digest=payload["ir_digest"],
            seed=int(payload["seed"]),
            schedule=_unpack_tuples(payload["schedule"], 2),
            syncs=_unpack_tuples(payload["syncs"], 3),
            threads=_unpack_tuples(payload["threads"], 4),
            scheduler=payload.get("scheduler") or "random",
            entry=payload.get("entry") or "main",
            entry_args=tuple(payload.get("entry_args") or ()),
            max_steps=int(payload.get("max_steps") or 0),
            steps=int(payload.get("steps") or 0),
            reason=payload.get("reason") or "",
            schema=schema,
        )

    # ------------------------------------------------------------------
    # JSON-lines file round-trip (owl record / owl replay)

    def save(self, path: str) -> None:
        """Write the log as JSON lines: one header line, one per section."""
        header = self.to_payload()
        sections = [{"kind": name, "data": header.pop(name)}
                    for name in ("schedule", "syncs", "threads")]
        header["kind"] = "header"
        jsonl.write(path, [header] + sections)

    @classmethod
    def load(cls, path: str) -> "ScheduleLog":
        """The whole log, or ``ValueError`` naming ``path``.

        :meth:`save` writes the ``threads`` section last, so a log cut
        anywhere — a torn tail included — lacks a section and raises."""
        records, _ = jsonl.read(path)
        payload: Dict = {}
        for record in records:
            kind = record.pop("kind", None)
            if kind == "header":
                payload.update(record)
            elif kind in ("schedule", "syncs", "threads"):
                payload[kind] = record["data"]
        for required in ("schedule", "syncs", "threads"):
            if required not in payload:
                raise ValueError(
                    "schedule log %s has no %s section" % (path, required))
        return cls.from_payload(payload)

    def __repr__(self) -> str:
        return ("<ScheduleLog %s seed=%d ir=%s quanta=%d decisions=%d "
                "syncs=%d threads=%d>") % (
            self.program, self.seed, self.ir_digest, len(self.schedule),
            self.decisions, len(self.syncs), len(self.threads),
        )


# ---------------------------------------------------------------------------
# recording


class ScheduleRecorder(Scheduler, TraceObserver):
    """Records a run into :class:`ScheduleLog` raw material.

    Both a scheduler wrapper (delegating every decision unchanged while
    run-length encoding the chosen thread ids — the
    :class:`repro.runtime.coverage.SwitchTracker` idiom) and a trace
    observer (collecting the sync-acquisition order and the thread
    spawn/join points).  Attach the same instance as the VM's scheduler
    *and* as an observer.
    """

    def __init__(self, inner: Scheduler):
        self.inner = inner
        #: run-length-encoded decisions, built incrementally
        self.schedule: List[List[int]] = []
        self.syncs: List[Tuple[int, int, int]] = []
        self.threads: List[Tuple[int, int, int, int]] = []

    # -- scheduler side

    def choose(self, runnable: List[ThreadContext], step: int) -> ThreadContext:
        chosen = self.inner.choose(runnable, step)
        if self.schedule and self.schedule[-1][0] == chosen.thread_id:
            self.schedule[-1][1] += 1
        else:
            self.schedule.append([chosen.thread_id, 1])
        return chosen

    def on_thread_created(self, thread: ThreadContext) -> None:
        self.inner.on_thread_created(thread)

    def reset(self) -> None:
        self.inner.reset()
        self.schedule = []
        self.syncs = []
        self.threads = []

    # -- observer side

    def on_sync(self, event: SyncEvent) -> None:
        if event.kind == SyncEvent.ACQUIRE:
            self.syncs.append((event.step, event.thread_id, event.address))

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        code = _THREAD_KIND_CODES.get(event.kind)
        if code is not None:
            self.threads.append(
                (event.step, code, event.thread_id, event.other_thread_id))

    # -- assembly

    def to_log(
        self,
        module,
        seed: int,
        program: Optional[str] = None,
        entry: str = "main",
        entry_args: Sequence[int] = (),
        max_steps: int = 200_000,
        result: Optional[ExecutionResult] = None,
        scheduler_label: Optional[str] = None,
    ) -> ScheduleLog:
        return ScheduleLog(
            program=program or module.name,
            ir_digest=module_ir_digest(module),
            seed=seed,
            schedule=[tuple(pair) for pair in self.schedule],
            syncs=list(self.syncs),
            threads=list(self.threads),
            scheduler=scheduler_label or type(self.inner).__name__,
            entry=entry,
            entry_args=entry_args,
            max_steps=max_steps,
            steps=result.steps if result is not None else 0,
            reason=result.reason if result is not None else "",
        )


def record_seed(
    module,
    seed: int,
    entry: str = "main",
    inputs: Optional[Dict] = None,
    entry_args: Sequence[int] = (),
    max_steps: int = 200_000,
    scheduler: Optional[Scheduler] = None,
    scheduler_label: Optional[str] = None,
    world=None,
    program: Optional[str] = None,
    fingerprint: bool = False,
    observers: Sequence[TraceObserver] = (),
):
    """Execute once and record it; ``(log, result, fingerprint_or_None)``.

    No detector attaches by default, so recording runs near reference
    speed; pass ``observers`` to analyze on the fly anyway.  With
    ``fingerprint=True`` a :class:`repro.runtime.diffcheck.TraceRecorder`
    rides along and the returned fingerprint (mode ``"recorded"``) is
    directly comparable against :func:`replay_log`'s.

    :class:`ScheduleRecorder` observes every decision, so a recording VM
    never fuses (it runs its compiled ops one step at a time).
    """
    recorder = ScheduleRecorder(scheduler or RandomScheduler(seed))
    vm = VM(module, scheduler=recorder, world=world, inputs=inputs,
            max_steps=max_steps, seed=seed)
    vm.add_observer(recorder)
    for observer in observers:
        vm.add_observer(observer)
    trace = None
    if fingerprint:
        from repro.runtime.diffcheck import TraceRecorder

        trace = TraceRecorder()
        vm.add_observer(trace)
    started = time.perf_counter()
    vm.start(entry, entry_args)
    result = vm.run()
    wall = time.perf_counter() - started
    log = recorder.to_log(
        module, seed, program=program, entry=entry, entry_args=entry_args,
        max_steps=max_steps, result=result, scheduler_label=scheduler_label,
    )
    recorded_fingerprint = None
    if fingerprint:
        recorded_fingerprint = _fingerprint(
            log.program, seed, "recorded", trace, vm, result, wall)
    return log, result, recorded_fingerprint


def _fingerprint(program: str, seed: int, mode: str, trace, vm,
                 result: ExecutionResult, wall: float):
    from repro.runtime.diffcheck import ExecutionFingerprint, _normalize_fault

    return ExecutionFingerprint(
        program=program,
        seed=seed,
        mode=mode,
        events=trace.records,
        faults=[_normalize_fault(fault) for fault in vm.faults],
        recorded_faults=[_normalize_fault(fault)
                         for fault in vm.memory.recorded_faults],
        reason=result.reason,
        steps=result.steps,
        exit_code=result.exit_code,
        wall_seconds=wall,
    )


# ---------------------------------------------------------------------------
# replay


class ReplayMismatch(RuntimeError):
    """The log cannot apply to this module (IR digest or schema mismatch)."""


class _ReplayVerifier(TraceObserver):
    """Checks the replay against the recorded sync/thread checkpoints.

    Every acquire and every spawn/join point must re-occur at the recorded
    step, on the recorded thread, against the recorded address/peer — in
    the recorded order.  Any deviation (including missing or extra events)
    is counted, making divergence loud even when the replayed schedule
    happened to remain applicable.
    """

    def __init__(self, log: ScheduleLog):
        self._syncs = log.syncs
        self._threads = log.threads
        self._sync_cursor = 0
        self._thread_cursor = 0
        self.sync_divergences = 0
        self.thread_divergences = 0

    def on_sync(self, event: SyncEvent) -> None:
        if event.kind != SyncEvent.ACQUIRE:
            return
        cursor = self._sync_cursor
        self._sync_cursor += 1
        observed = (event.step, event.thread_id, event.address)
        if cursor >= len(self._syncs) or self._syncs[cursor] != observed:
            self.sync_divergences += 1

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        code = _THREAD_KIND_CODES.get(event.kind)
        if code is None:
            return
        cursor = self._thread_cursor
        self._thread_cursor += 1
        observed = (event.step, code, event.thread_id, event.other_thread_id)
        if cursor >= len(self._threads) or self._threads[cursor] != observed:
            self.thread_divergences += 1

    def finalize(self) -> None:
        """Recorded checkpoints the replay never reached are divergences."""
        self.sync_divergences += max(0, len(self._syncs) - self._sync_cursor)
        self.thread_divergences += max(
            0, len(self._threads) - self._thread_cursor)


class ReplayResult:
    """Outcome of replaying one :class:`ScheduleLog`."""

    def __init__(self, log: ScheduleLog, result: ExecutionResult,
                 schedule_divergences: int, sync_divergences: int,
                 thread_divergences: int, digest_match: bool,
                 fingerprint=None, wall_seconds: float = 0.0):
        self.log = log
        self.result = result
        self.schedule_divergences = schedule_divergences
        self.sync_divergences = sync_divergences
        self.thread_divergences = thread_divergences
        self.digest_match = digest_match
        self.fingerprint = fingerprint
        self.wall_seconds = wall_seconds

    @property
    def steps_match(self) -> bool:
        return self.result.steps == self.log.steps

    @property
    def reason_match(self) -> bool:
        return self.result.reason == self.log.reason

    @property
    def total_divergences(self) -> int:
        return (self.schedule_divergences + self.sync_divergences
                + self.thread_divergences
                + (0 if self.steps_match else 1)
                + (0 if self.reason_match else 1))

    @property
    def faithful(self) -> bool:
        """The replay invariant held: same digest, zero divergence."""
        return self.digest_match and self.total_divergences == 0

    def as_dict(self) -> Dict:
        return {
            "program": self.log.program,
            "seed": self.log.seed,
            "steps": self.result.steps,
            "recorded_steps": self.log.steps,
            "reason": self.result.reason,
            "digest_match": self.digest_match,
            "schedule_divergences": self.schedule_divergences,
            "sync_divergences": self.sync_divergences,
            "thread_divergences": self.thread_divergences,
            "faithful": self.faithful,
        }

    def __repr__(self) -> str:
        return "<ReplayResult %s seed=%d %s>" % (
            self.log.program, self.log.seed,
            "faithful" if self.faithful else
            "%d divergences" % self.total_divergences,
        )


def replay_log(
    module,
    log: ScheduleLog,
    observers: Sequence[TraceObserver] = (),
    inputs: Optional[Dict] = None,
    world=None,
    strict: bool = True,
    fingerprint: bool = False,
    scheduler_wrapper=None,
) -> ReplayResult:
    """Deterministically re-execute a recorded run, observers attached.

    The VM is reconstructed from the log's header (seed, entry, entry
    arguments, step budget) and driven by a :class:`ReplayScheduler` over
    the expanded schedule; ``inputs``/``world`` must match the recording
    (they are the caller's workload, not part of the log — the IR digest
    plus the divergence counters catch a mismatch loudly).  With
    ``strict=True`` (the default) a log recorded against a different
    module digest raises :class:`ReplayMismatch` instead of replaying.
    With ``fingerprint=True`` the result carries an
    :class:`~repro.runtime.diffcheck.ExecutionFingerprint` (mode
    ``"replayed"``) comparable against the recording's.
    ``scheduler_wrapper``, when given, wraps the internal
    :class:`ReplayScheduler` with a pure-delegation observer of the
    decision stream (the predictive detector's decision-index tracker);
    the wrapper must delegate every decision unchanged.
    :class:`~repro.runtime.scheduler.ReplayScheduler` consumes one
    recorded decision per step, so a replaying VM never fuses.
    """
    digest = module_ir_digest(module)
    digest_match = digest == log.ir_digest
    if strict and not digest_match:
        raise ReplayMismatch(
            "log for %s was recorded against IR digest %s, module has %s"
            % (log.program, log.ir_digest, digest))
    replay_scheduler = ReplayScheduler(log.expand_schedule())
    scheduler = (scheduler_wrapper(replay_scheduler)
                 if scheduler_wrapper is not None else replay_scheduler)
    verifier = _ReplayVerifier(log)
    vm = VM(module, scheduler=scheduler, world=world, inputs=inputs,
            max_steps=log.max_steps or 200_000, seed=log.seed)
    vm.add_observer(verifier)
    for observer in observers:
        vm.add_observer(observer)
    trace = None
    if fingerprint:
        from repro.runtime.diffcheck import TraceRecorder

        trace = TraceRecorder()
        vm.add_observer(trace)
    started = time.perf_counter()
    vm.start(log.entry, log.entry_args)
    result = vm.run()
    wall = time.perf_counter() - started
    verifier.finalize()
    replay_fingerprint = None
    if fingerprint:
        replay_fingerprint = _fingerprint(
            log.program, log.seed, "replayed", trace, vm, result, wall)
    return ReplayResult(
        log=log,
        result=result,
        schedule_divergences=replay_scheduler.divergences,
        sync_divergences=verifier.sync_divergences,
        thread_divergences=verifier.thread_divergences,
        digest_match=digest_match,
        fingerprint=replay_fingerprint,
        wall_seconds=wall,
    )
