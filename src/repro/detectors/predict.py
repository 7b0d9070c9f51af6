"""Predictive sync-preserving race detection from one recorded execution.

The detectors' seed sweep spends most of its budget re-discovering races
that are already *inferable* from a single trace.  This module implements
sync-preserving race prediction (Mathur, Pavlogiannis & Viswanathan,
OOPSLA 2021): from one recorded execution — a
:class:`repro.runtime.record.ScheduleLog` replayed with an event
collector attached — it decides, per conflicting access pair, whether a
*reordered but sync-consistent* schedule exists in which the two accesses
are simultaneously enabled, and emits a :class:`RaceReport` for every
pair that is.  An ``optimistic`` mode additionally allows the
sync-reversal relaxation of Shi, Mathur & Pavlogiannis (ASE 2022):
critical sections whose acquires are *not* needed by the reordering may
be pushed past it entirely instead of being replayed in trace order.

The feasibility core is the **sync-preserving closure**: a per-thread
prefix fixpoint over the events each candidate pair *requires*:

- **PO rule** — an event requires its program-order predecessors, so the
  closure is a per-thread frontier (required prefix length);
- **fork rule** — any required event of thread *t* requires the CREATE
  event that spawned *t* (and, transitively, the spawning thread's prefix
  up to it) — the racing threads' own forks included, so a witness can
  spawn them at all;
- **join rule** — a required JOIN(*u*) requires *every* event of *u*;
- **lock rule** — a required ACQUIRE of lock *l* requires the release of
  the critical section immediately preceding it on *l* in trace order
  (sync preservation).  In ``optimistic`` mode only critical sections
  whose acquire is itself required keep their trace order; unneeded ones
  may be reversed past the race;
- **atomic rule** — atomic accesses (and OWL adhoc-sync annotated flag
  accesses) are modelled as zero-length critical sections: an atomic
  *write* publishes (release), an atomic *read* requires the release of
  the nearest preceding publishing write — the exact rel-acq edges
  :class:`repro.detectors.tsan.TSanDetector` derives from them.  Atomics
  stay order-preserved even in optimistic mode.

The pair is feasible iff the fixpoint pulls in *neither* access: every
closure edge is a happens-before edge of the recorded trace, so an
infeasible pair is HB-ordered and — contrapositively — **every race the
HB detector observed in the trace is predicted** (the ``predicted ⊇
observed`` property the test suite checks on random IR).

Unlike the paper's closure, reads are not reads-from-preserved: a
synthesized reordering may change a branch value and derail.  Instead of
carrying that proof burden statically, every prediction is (optionally)
**confirmed by replay**: a witness schedule — the recorded schedule
restricted to the closure plus the racing threads' prefixes — is run
through the existing :class:`repro.runtime.scheduler.ReplayScheduler`
with a fresh TSan detector attached.  A prediction is then either
replay-witnessed or explicitly marked unwitnessed (ARCHITECTURE
invariant 8); it is never silently trusted.

Everything here is deterministic: the trace replay, the candidate
enumeration order, the closure and the witness synthesis depend only on
the log, so the prediction block is bit-identical at any job count.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.detectors.annotations import AnnotationSet
from repro.detectors.report import (
    AccessRecord,
    RaceReport,
    ReportSet,
    report_from_payload,
    report_to_payload,
)
from repro.runtime.events import (
    AccessEvent,
    SyncEvent,
    ThreadLifecycleEvent,
    TraceObserver,
)
from repro.runtime.scheduler import Scheduler

#: Event kinds of the predictive trace.
READ, WRITE, ACQUIRE, RELEASE, FORK, JOIN = range(6)

_KIND_NAMES = {READ: "read", WRITE: "write", ACQUIRE: "acquire",
               RELEASE: "release", FORK: "fork", JOIN: "join"}

#: Lock namespaces: real locks (VM sync events) and atomic/flag addresses
#: live in different address spaces.
_LOCK, _ATOMIC = 0, 1


class PredictPolicy:
    """Knobs of one prediction pass.

    - ``optimistic`` — allow the sync-reversal relaxation (more races
      predicted; each still witness-checked).
    - ``witness`` — confirm every prediction by synthesizing a witness
      schedule and replaying it with a TSan detector attached; ``False``
      marks every non-observed prediction unwitnessed.
    - ``max_pairs_per_static`` — closure attempts per static instruction
      pair before giving up on it (different concrete event pairs of the
      same static pair can differ in feasibility).  Pairs the detector
      observed on the trace are exempt, so they are always predicted.
    - ``max_closures`` — global closure budget per trace.
    """

    def __init__(self, optimistic: bool = False, witness: bool = True,
                 max_pairs_per_static: int = 4, max_closures: int = 20_000):
        self.optimistic = bool(optimistic)
        self.witness = bool(witness)
        self.max_pairs_per_static = int(max_pairs_per_static)
        self.max_closures = int(max_closures)

    @property
    def mode(self) -> str:
        return "optimistic" if self.optimistic else "sync-preserving"

    def as_dict(self) -> Dict:
        return {
            "optimistic": self.optimistic,
            "witness": self.witness,
            "max_pairs_per_static": self.max_pairs_per_static,
            "max_closures": self.max_closures,
        }

    def __repr__(self) -> str:
        return "<PredictPolicy %s witness=%s>" % (self.mode, self.witness)


class PredictEvent:
    """One event of the predictive trace (access, sync or lifecycle)."""

    __slots__ = ("index", "thread", "po_index", "kind", "address", "size",
                 "step", "instruction", "value", "call_stack", "peer",
                 "_variable")

    def __init__(self, index: int, thread: int, po_index: int, kind: int,
                 address: int = 0, size: int = 1, step: int = 0,
                 instruction=None, value: int = 0, call_stack=(),
                 peer: Optional[int] = None, variable=None):
        self.index = index
        self.thread = thread
        self.po_index = po_index
        self.kind = kind
        self.address = address
        self.size = size
        self.step = step
        self.instruction = instruction
        self.value = value
        self.call_stack = call_stack
        self.peer = peer
        self._variable = variable

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    @property
    def variable(self):
        value = self._variable
        if callable(value):
            value = value()
            self._variable = value
        return value

    def __repr__(self) -> str:
        return "<PE %d t%d/%d %s 0x%x>" % (
            self.index, self.thread, self.po_index,
            _KIND_NAMES[self.kind], self.address,
        )


class _CriticalSection:
    """One acquire..release span (zero-length for atomics/flags)."""

    __slots__ = ("acquire", "release", "publishes", "prev_publish")

    def __init__(self, acquire: Optional[PredictEvent],
                 release: Optional[PredictEvent], publishes: bool,
                 prev_publish: Optional[int]):
        self.acquire = acquire
        self.release = release
        self.publishes = publishes
        #: Index (in the per-lock CS list) of the nearest earlier
        #: publishing section, or None.
        self.prev_publish = prev_publish


class PredictiveTrace:
    """The event trace the closure runs over.

    Built either by :class:`_TraceCollector` during a log replay or by
    hand (tests) through the ``read``/``write``/``acquire``/``release``/
    ``atomic_read``/``atomic_write``/``fork``/``join`` builder methods.
    """

    def __init__(self):
        self.events: List[PredictEvent] = []
        self.by_thread: Dict[int, List[PredictEvent]] = {}
        #: child thread id -> the FORK event (in the parent) that spawned it
        self.fork_of: Dict[int, PredictEvent] = {}
        #: per-thread ACQUIRE/JOIN events, in program order (closure markers)
        self.markers: Dict[int, List[PredictEvent]] = {}
        self._marker_po: Dict[int, List[int]] = {}
        #: (space, address) -> critical sections in trace order
        self.sections: Dict[Tuple[int, int], List[_CriticalSection]] = {}
        #: event index of an ACQUIRE -> ((space, address), cs index)
        self.acquire_cs: Dict[int, Tuple[Tuple[int, int], int]] = {}
        self._open: Dict[Tuple[int, int], List[int]] = {}
        self._last_publish: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # construction

    def _event(self, thread: int, kind: int, **kw) -> PredictEvent:
        row = self.by_thread.setdefault(thread, [])
        event = PredictEvent(len(self.events), thread, len(row), kind, **kw)
        self.events.append(event)
        row.append(event)
        return event

    def _mark(self, event: PredictEvent) -> None:
        self.markers.setdefault(event.thread, []).append(event)
        self._marker_po.setdefault(event.thread, []).append(event.po_index)

    def read(self, thread: int, address: int, **kw) -> PredictEvent:
        return self._event(thread, READ, address=address, **kw)

    def write(self, thread: int, address: int, **kw) -> PredictEvent:
        return self._event(thread, WRITE, address=address, **kw)

    def acquire(self, thread: int, lock: int, **kw) -> PredictEvent:
        event = self._event(thread, ACQUIRE, address=lock, **kw)
        key = (_LOCK, lock)
        sections = self.sections.setdefault(key, [])
        index = len(sections)
        sections.append(_CriticalSection(
            event, None, True, index - 1 if index else None))
        self.acquire_cs[event.index] = (key, index)
        self._open.setdefault((thread, lock), []).append(index)
        self._mark(event)
        return event

    def release(self, thread: int, lock: int, **kw) -> PredictEvent:
        event = self._event(thread, RELEASE, address=lock, **kw)
        stack = self._open.get((thread, lock))
        if stack:
            self.sections[(_LOCK, lock)][stack.pop()].release = event
        return event

    def atomic_write(self, thread: int, address: int, **kw) -> PredictEvent:
        """An atomic store: a zero-length publishing critical section."""
        event = self._event(thread, RELEASE, address=address, **kw)
        key = (_ATOMIC, address)
        sections = self.sections.setdefault(key, [])
        sections.append(_CriticalSection(
            event, event, True, self._last_publish.get(key)))
        self._last_publish[key] = len(sections) - 1
        return event

    def atomic_read(self, thread: int, address: int, **kw) -> PredictEvent:
        """An atomic load: acquires the nearest preceding publish."""
        event = self._event(thread, ACQUIRE, address=address, **kw)
        key = (_ATOMIC, address)
        sections = self.sections.setdefault(key, [])
        index = len(sections)
        sections.append(_CriticalSection(
            event, event, False, self._last_publish.get(key)))
        self.acquire_cs[event.index] = (key, index)
        self._mark(event)
        return event

    def fork(self, parent: int, child: int, **kw) -> PredictEvent:
        event = self._event(parent, FORK, peer=child, **kw)
        self.fork_of.setdefault(child, event)
        return event

    def join(self, thread: int, child: int, **kw) -> PredictEvent:
        event = self._event(thread, JOIN, peer=child, **kw)
        self._mark(event)
        return event

    # ------------------------------------------------------------------

    def accesses(self) -> List[PredictEvent]:
        return [e for e in self.events if e.kind in (READ, WRITE)]

    def marker_range(self, thread: int, lo: int, hi: int) -> List[PredictEvent]:
        """Markers of ``thread`` with program-order index in ``[lo, hi)``."""
        po = self._marker_po.get(thread)
        if not po:
            return []
        markers = self.markers[thread]
        return markers[bisect_left(po, lo):bisect_left(po, hi)]

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# the sync-preserving closure


class SyncPreservingClosure:
    """Required-prefix fixpoint for one candidate pair."""

    def __init__(self, trace: PredictiveTrace, optimistic: bool = False):
        self.trace = trace
        self.optimistic = optimistic
        #: thread -> required prefix length (events 0 .. frontier-1)
        self.frontier: Dict[int, int] = {}
        self.poisoned = False
        self._forked: Set[int] = set()
        self._released: Set[Tuple[Tuple[int, int], int]] = set()
        #: optimistic mode: lock -> sorted CS indices with required acquires
        self._required_cs: Dict[Tuple[int, int], List[int]] = {}
        self._pending: List[Tuple[int, int, int]] = []

    def require_prefix(self, thread: int, upto: int) -> None:
        """Require the first ``upto`` events of ``thread``."""
        self._require_fork(thread)
        current = self.frontier.get(thread, 0)
        if upto <= current:
            return
        self.frontier[thread] = upto
        self._pending.append((thread, current, upto))

    def _require_fork(self, thread: int) -> None:
        if thread in self._forked:
            return
        self._forked.add(thread)
        fork = self.trace.fork_of.get(thread)
        if fork is not None:
            self.require_prefix(fork.thread, fork.po_index + 1)

    def _require_release(self, key: Tuple[int, int], index: int) -> None:
        if (key, index) in self._released:
            return
        self._released.add((key, index))
        release = self.trace.sections[key][index].release
        if release is None:
            # The section never released in the trace: no reordering can
            # satisfy an acquire that must observe it.
            self.poisoned = True
            return
        self.require_prefix(release.thread, release.po_index + 1)

    def _handle_acquire(self, event: PredictEvent) -> None:
        key, index = self.trace.acquire_cs[event.index]
        sections = self.trace.sections[key]
        section = sections[index]
        if key[0] == _ATOMIC:
            # rel-acq on an atomic/flag address: order-preserved in both
            # modes; a read requires the publish it observed.
            if not section.publishes and section.prev_publish is not None:
                self._require_release(key, section.prev_publish)
            return
        if not self.optimistic:
            if section.prev_publish is not None:
                self._require_release(key, section.prev_publish)
            return
        # Optimistic (sync-reversal): only critical sections whose acquire
        # is itself required keep their trace order; everything else may be
        # pushed past the race.
        required = self._required_cs.setdefault(key, [])
        position = bisect_left(required, index)
        for earlier in required[:position]:
            self._require_release(key, earlier)
        if position < len(required):
            self._require_release(key, index)
        required.insert(position, index)

    def run(self) -> None:
        trace = self.trace
        while self._pending and not self.poisoned:
            thread, lo, hi = self._pending.pop()
            for event in trace.marker_range(thread, lo, hi):
                if event.kind == JOIN:
                    child = event.peer
                    self._require_fork(child)
                    self.require_prefix(
                        child, len(trace.by_thread.get(child, ())))
                else:
                    self._handle_acquire(event)
                if self.poisoned:
                    return

    def feasible(self, first: PredictEvent, second: PredictEvent) -> bool:
        """Whether a sync-consistent reordering co-enables the pair."""
        self.require_prefix(first.thread, first.po_index)
        self.require_prefix(second.thread, second.po_index)
        self.run()
        return (
            not self.poisoned
            and self.frontier.get(first.thread, 0) <= first.po_index
            and self.frontier.get(second.thread, 0) <= second.po_index
        )


def sync_preserving_feasible(trace: PredictiveTrace, first: PredictEvent,
                             second: PredictEvent,
                             optimistic: bool = False) -> bool:
    """Convenience entry point for one pair on a (hand-built) trace."""
    return SyncPreservingClosure(trace, optimistic).feasible(first, second)


# ---------------------------------------------------------------------------
# trace collection (log replay observer)


class _TraceCollector(TraceObserver):
    """Builds a :class:`PredictiveTrace` from a replayed execution.

    Mirrors :class:`TSanDetector`'s event model exactly: atomic accesses
    and OWL adhoc-sync annotated flag accesses become rel-acq edges, not
    race candidates; everything else becomes a READ/WRITE candidate.
    """

    def __init__(self, annotations: Optional[AnnotationSet] = None):
        self.annotations = annotations or AnnotationSet()
        self.trace = PredictiveTrace()

    def on_access(self, event: AccessEvent) -> None:
        trace = self.trace
        if event.is_atomic:
            if event.is_write:
                trace.atomic_write(event.thread_id, event.address,
                                   step=event.step)
            else:
                trace.atomic_read(event.thread_id, event.address,
                                  step=event.step)
            return
        annotated_release = event.is_write and self.annotations.is_release(
            event.instruction)
        annotated_acquire = (not event.is_write) \
            and self.annotations.is_acquire(event.instruction)
        if annotated_acquire:
            trace.atomic_read(event.thread_id, event.address, step=event.step)
        kw = dict(
            address=event.address, size=event.size, step=event.step,
            instruction=event.instruction, value=event.value,
            call_stack=event.call_stack, variable=event._variable,
        )
        if event.is_write:
            trace.write(event.thread_id, **kw)
        else:
            trace.read(event.thread_id, **kw)
        if annotated_release:
            trace.atomic_write(event.thread_id, event.address,
                               step=event.step)

    def on_sync(self, event: SyncEvent) -> None:
        if event.kind == SyncEvent.ACQUIRE:
            self.trace.acquire(event.thread_id, event.address,
                               step=event.step)
        else:
            self.trace.release(event.thread_id, event.address,
                               step=event.step)

    def on_thread(self, event: ThreadLifecycleEvent) -> None:
        if event.kind == ThreadLifecycleEvent.CREATE:
            self.trace.fork(event.thread_id, event.other_thread_id,
                            step=event.step)
        elif event.kind == ThreadLifecycleEvent.JOIN:
            self.trace.join(event.thread_id, event.other_thread_id,
                            step=event.step)


class _DecisionTracker(Scheduler):
    """Scheduler wrapper recording the VM step of every decision.

    The VM's step counter can jump forward over sleeping threads, so the
    flat schedule position of a decision is not its step number; this map
    recovers ``step -> decision index`` for witness synthesis.
    """

    def __init__(self, inner):
        self.inner = inner
        self.steps: List[int] = []

    @property
    def divergences(self) -> int:
        return self.inner.divergences

    def choose(self, runnable, step):
        self.steps.append(step)
        return self.inner.choose(runnable, step)

    def on_thread_created(self, thread) -> None:
        self.inner.on_thread_created(thread)

    def reset(self) -> None:
        self.inner.reset()
        self.steps = []


# ---------------------------------------------------------------------------
# predictions


class Prediction:
    """One predicted race and how it was (or was not) confirmed."""

    __slots__ = ("report", "witnessed", "observed", "mode")

    def __init__(self, report: RaceReport, witnessed: Optional[bool],
                 observed: bool, mode: str):
        self.report = report
        self.witnessed = witnessed
        self.observed = observed
        self.mode = mode
        report.tags["predicted"] = {
            "witnessed": witnessed,
            "observed": observed,
            "mode": mode,
        }

    def __repr__(self) -> str:
        return "<Prediction %s %s>" % (
            self.report.uid,
            "observed" if self.observed else
            "witnessed" if self.witnessed else "unwitnessed",
        )


class PredictionResult:
    """Everything one prediction pass produced."""

    def __init__(self, program: str, seed: int, policy: PredictPolicy):
        self.program = program
        self.seed = seed
        self.policy = policy
        self.predictions: List[Prediction] = []
        self.counters: Dict[str, int] = {
            "events": 0, "accesses": 0, "candidate_pairs": 0,
            "closures": 0, "predicted": 0, "rejected": 0, "observed": 0,
            "witnessed": 0, "unwitnessed": 0, "witness_attempts": 0,
            "witness_divergences": 0, "truncated_pairs": 0,
        }
        self.wall_seconds = 0.0

    @property
    def predicted_keys(self) -> Set[Tuple[int, int]]:
        return {p.report.static_key for p in self.predictions}

    def report_set(self) -> ReportSet:
        reports = ReportSet()
        for prediction in self.predictions:
            reports.add(prediction.report)
        return reports

    def metrics_block(self) -> Dict:
        """The metrics-JSON ``"predict"`` block.

        Deterministic given the log — no wall clock — so jobs=1 and
        jobs=N runs serialize bit-identically.
        """
        return {
            "detector": "predict",
            "program": self.program,
            "seed": self.seed,
            "mode": self.policy.mode,
            "policy": self.policy.as_dict(),
            "counters": dict(self.counters),
            "pairs": sorted(
                [list(p.report.static_key),
                 "observed" if p.observed else
                 "witnessed" if p.witnessed else "unwitnessed"]
                for p in self.predictions
            ),
        }

    def to_payload(self) -> Dict:
        return {
            "program": self.program,
            "seed": self.seed,
            "policy": self.policy.as_dict(),
            "counters": dict(self.counters),
            "predictions": [
                {
                    "report": report_to_payload(p.report),
                    "witnessed": p.witnessed,
                    "observed": p.observed,
                    "mode": p.mode,
                }
                for p in self.predictions
            ],
        }

    @classmethod
    def from_payload(cls, module, payload: Dict) -> "PredictionResult":
        policy = PredictPolicy(**payload["policy"])
        result = cls(payload["program"], int(payload["seed"]), policy)
        result.counters.update(payload["counters"])
        for item in payload["predictions"]:
            result.predictions.append(Prediction(
                report_from_payload(module, item["report"]),
                item["witnessed"], item["observed"], item["mode"],
            ))
        return result

    def describe(self) -> str:
        c = self.counters
        lines = [
            "prediction (%s): %d races from 1 trace of %s seed %d" % (
                self.policy.mode, c["predicted"], self.program, self.seed),
            "  trace: %d events (%d accesses), %d candidate pairs, "
            "%d closures" % (c["events"], c["accesses"],
                             c["candidate_pairs"], c["closures"]),
            "  observed in trace: %d   witnessed by replay: %d   "
            "unwitnessed: %d" % (c["observed"], c["witnessed"],
                                 c["unwitnessed"]),
        ]
        for prediction in self.predictions:
            status = ("observed" if prediction.observed else
                      "witnessed" if prediction.witnessed else "unwitnessed")
            report = prediction.report
            lines.append("  %s [%s] %s at %s / %s" % (
                report.uid, status, report.variable or "?",
                report.first.location, report.second.location,
            ))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<PredictionResult %s seed=%d predicted=%d witnessed=%d>" % (
            self.program, self.seed, self.counters["predicted"],
            self.counters["witnessed"],
        )


# ---------------------------------------------------------------------------
# witness synthesis


def synthesize_witness(trace: PredictiveTrace, flat: Sequence[int],
                       decision_steps: Sequence[int],
                       closure: SyncPreservingClosure,
                       first: PredictEvent,
                       second: PredictEvent) -> List[int]:
    """The witness schedule: recorded decisions restricted to the closure.

    Per-thread prefixes of the recorded flat schedule, cut at each
    thread's last required event (the racing threads at their accesses),
    emitted in recorded order — so every kept acquire still finds its
    release already replayed, and the racing accesses become adjacent at
    the end.
    """
    step_to_index = {step: i for i, step in enumerate(decision_steps)}

    def decision_of(event: PredictEvent) -> int:
        # Events are emitted after the step increment: decision step + 1.
        index = step_to_index.get(event.step - 1)
        if index is None:
            index = min(max(event.step - 1, 0), len(flat) - 1)
        return index

    bounds: Dict[int, int] = {}
    for thread, upto in closure.frontier.items():
        if upto > 0:
            row = trace.by_thread.get(thread, ())
            event = row[min(upto, len(row)) - 1]
            bounds[thread] = max(bounds.get(thread, -1), decision_of(event))
    for event in (first, second):
        bounds[event.thread] = max(
            bounds.get(event.thread, -1), decision_of(event))
    # Forked-but-eventless threads contribute no decisions; the fork rule
    # already pulled their spawning prefixes into the closure.
    witness: List[int] = []
    for index, thread in enumerate(flat):
        bound = bounds.get(thread)
        if bound is not None and index <= bound:
            witness.append(thread)
    return witness


def _replay_witness(module, log, witness: Sequence[int],
                    static_key: Tuple[int, int],
                    annotations: Optional[AnnotationSet],
                    inputs, world) -> Tuple[bool, int]:
    """Run the witness schedule with a fresh TSan detector attached.

    Returns ``(witnessed, divergences)`` — witnessed iff the predicted
    static pair was reported during the (bounded) witness replay.
    """
    from repro.detectors.tsan import TSanDetector
    from repro.runtime.interpreter import VM
    from repro.runtime.scheduler import ReplayScheduler

    scheduler = ReplayScheduler(list(witness))
    vm = VM(module, scheduler=scheduler, world=world, inputs=inputs,
            max_steps=log.max_steps or 200_000, seed=log.seed)
    detector = TSanDetector(annotations=annotations)
    vm.add_observer(detector)
    vm.start(log.entry, log.entry_args)
    # Run in bounded chunks: the race must surface within the witness
    # itself, so stop as soon as the schedule is consumed (or found) —
    # never pay for the fallback scheduler running the program out.
    budget = len(witness) + 16
    for _ in range(4):
        result = vm.run(max_steps=budget)
        if detector.reports.get(static_key) is not None:
            break
        if result.reason != "step-limit":
            break
        if scheduler._cursor >= len(witness):
            break
    witnessed = detector.reports.get(static_key) is not None
    return witnessed, scheduler.divergences


# ---------------------------------------------------------------------------
# the prediction pass


def _pair_key(a: PredictEvent, b: PredictEvent) -> Tuple[int, int]:
    ua = a.instruction.uid or 0 if a.instruction is not None else 0
    ub = b.instruction.uid or 0 if b.instruction is not None else 0
    return (ua, ub) if ua <= ub else (ub, ua)


def _record_of(event: PredictEvent) -> AccessRecord:
    return AccessRecord(
        event.instruction, event.thread, event.is_write, event.value,
        event.call_stack, event.address, step=event.step, size=event.size,
    )


def predict_from_log(
    module,
    log,
    annotations: Optional[AnnotationSet] = None,
    inputs: Optional[Dict] = None,
    world_factory=None,
    policy: Optional[PredictPolicy] = None,
    observed_keys: Optional[Set[Tuple[int, int]]] = None,
) -> PredictionResult:
    """Predict the feasible race set of one recorded execution.

    Replays ``log`` (strictly — a digest mismatch raises
    :class:`repro.runtime.record.ReplayMismatch`) with the trace
    collector attached, enumerates conflicting cross-thread access pairs
    per byte, runs the sync-preserving closure per candidate and — per
    ``policy`` — confirms feasible pairs by witness replay.
    ``observed_keys`` are static pairs a detector already reported on
    this very trace (they skip witness synthesis: the recording itself is
    their witness); when ``None`` a TSan detector rides along on the
    collection replay to compute them.
    """
    from repro.runtime.record import replay_log

    policy = policy or PredictPolicy()
    result = PredictionResult(log.program, log.seed, policy)
    started = time.perf_counter()

    collector = _TraceCollector(annotations)
    observers: List[TraceObserver] = [collector]
    observed_detector = None
    if observed_keys is None:
        from repro.detectors.tsan import TSanDetector

        observed_detector = TSanDetector(annotations=annotations)
        observers.append(observed_detector)
    tracker_box: List[_DecisionTracker] = []

    def wrap(scheduler):
        tracker = _DecisionTracker(scheduler)
        tracker_box.append(tracker)
        return tracker

    replay = replay_log(
        module, log, observers=observers, inputs=inputs,
        world=world_factory() if world_factory is not None else None,
        strict=True, scheduler_wrapper=wrap,
    )
    if observed_detector is not None:
        observed_keys = {r.static_key for r in observed_detector.reports}
    trace = collector.trace
    flat = log.expand_schedule()
    decision_steps = tracker_box[0].steps

    counters = result.counters
    counters["events"] = len(trace)
    counters["replay_divergences"] = replay.total_divergences

    # Per-byte representative events: first occurrence per
    # (thread, instruction, direction) — the static dedup TSan applies.
    representatives: Dict[int, Dict[Tuple[int, int, bool], PredictEvent]] = {}
    accesses = trace.accesses()
    counters["accesses"] = len(accesses)
    for event in accesses:
        uid = event.instruction.uid or 0 if event.instruction is not None else 0
        for offset in range(max(1, event.size)):
            byte = event.address + offset
            representatives.setdefault(byte, {}).setdefault(
                (event.thread, uid, event.is_write), event)

    annotated_pairs: Set[Tuple[int, int]] = set()
    if annotations:
        for annotation in annotations:
            a = annotation.read_instruction.uid or 0
            b = annotation.write_instruction.uid or 0
            annotated_pairs.add((a, b) if a <= b else (b, a))

    predicted: Set[Tuple[int, int]] = set()
    attempts: Dict[Tuple[int, int], int] = {}
    seen_pairs: Set[Tuple[int, int]] = set()
    for byte in sorted(representatives):
        events = list(representatives[byte].values())
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                if a.thread == b.thread:
                    continue
                if not (a.is_write or b.is_write):
                    continue
                key = _pair_key(a, b)
                if key in predicted or key in annotated_pairs:
                    continue
                if key not in seen_pairs:
                    seen_pairs.add(key)
                    counters["candidate_pairs"] += 1
                # The cap bounds closure work on unobserved pairs only: an
                # observed pair may need every concrete instance to reach
                # the one the detector saw (predicted ⊇ observed).
                if key not in observed_keys and \
                        attempts.get(key, 0) >= policy.max_pairs_per_static:
                    continue
                if counters["closures"] >= policy.max_closures:
                    counters["truncated_pairs"] += 1
                    continue
                attempts[key] = attempts.get(key, 0) + 1
                counters["closures"] += 1
                first, second = (a, b) if a.index < b.index else (b, a)
                closure = SyncPreservingClosure(trace, policy.optimistic)
                if not closure.feasible(first, second):
                    continue
                predicted.add(key)
                counters["predicted"] += 1
                report = RaceReport(
                    _record_of(first), _record_of(second),
                    variable=second.variable or first.variable,
                    detector="predict",
                )
                observed = key in observed_keys
                witnessed: Optional[bool] = None
                if observed:
                    counters["observed"] += 1
                    witnessed = True
                elif policy.witness:
                    counters["witness_attempts"] += 1
                    witness = synthesize_witness(
                        trace, flat, decision_steps, closure, first, second)
                    witnessed, divergences = _replay_witness(
                        module, log, witness, key, annotations, inputs,
                        world_factory() if world_factory is not None
                        else None,
                    )
                    counters["witness_divergences"] += divergences
                if witnessed and not observed:
                    counters["witnessed"] += 1
                elif not observed and not witnessed:
                    counters["unwitnessed"] += 1
                result.predictions.append(
                    Prediction(report, witnessed, observed, policy.mode))
    counters["rejected"] = counters["closures"] - counters["predicted"]
    result.wall_seconds = time.perf_counter() - started
    return result
