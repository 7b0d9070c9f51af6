"""Hierarchical span tracing for the OWL pipeline.

Where :mod:`repro.runtime.metrics` answers "how much work did each stage
do?", spans answer "where did this particular run spend its time, and on
what?".  A :class:`SpanTracer` records a tree of timed spans — the pipeline
root, one span per stage, one per VM execution (detector seeds, race-verifier
attempts, vulnerability re-runs), one per Algorithm-1 propagation frame.

A tracer given a run log (:class:`repro.owl.runlog.RunLog`) writes every
span into it as it records it: one ``begin`` event when the span opens and
one ``end`` event, carrying the span's final attributes, when its body
completes (a body that raises writes no ``end``).  That log is the run's
one event stream: ``owl watch``, ``owl status``, ``owl resume`` and ``owl
trace`` all read it, and :mod:`repro.owl.runlog` alone knows its layout.
:meth:`SpanTracer.chrome_trace` renders a tree — live, or rebuilt from a
log — as Chrome ``trace_event`` ``B``/``E`` duration events that load
directly in ``chrome://tracing`` or Perfetto.

Worker processes (see :mod:`repro.owl.batch`) cannot share a tracer with the
parent, so each worker records into its own tracer and ships the result back
as a plain payload (:meth:`SpanTracer.export_payload`); the parent re-parents
those spans under its current span with :meth:`SpanTracer.adopt` — always in
seed/report order, never completion order — so the span *tree*, and the
events it writes to the log, are identical no matter how many jobs ran it.
Adopted groups get their own Chrome track (``tid``), which keeps ``B``/``E``
nesting well-formed even though worker spans overlap in time.

**Determinism and parity invariants**:

1. *Structure over timing* — span names, nesting, attributes and per-item
   order are deterministic at any job count (:meth:`SpanTracer.structure`
   is the comparison helper); timestamps and durations are observations
   and vary between any two runs.
2. *Adoption order* — worker payloads are adopted in seed/report/
   vulnerability index order, and each adopted group is logged in the
   nesting order a serial run writes, so neither the tree nor the log
   depends on which worker finished first.
3. *Spans are never cached* — a result-cache hit (:mod:`repro.owl.cache`)
   replays a stage's *result*, not its execution, so the batch layer strips
   spans before storing and records one :meth:`SpanTracer.marker` span
   (``cached=True``, with the live span's attributes) per hit instead of
   replaying the original execution's timings.  A warm-cache trace
   therefore truthfully shows where *this* run spent its time.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed, attributed node in the trace tree."""

    __slots__ = ("name", "sid", "parent", "track", "start", "end", "attrs")

    def __init__(self, name: str, sid: int, parent: Optional[int] = None,
                 track: int = 0, start: float = 0.0,
                 end: Optional[float] = None,
                 attrs: Optional[Dict] = None):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.track = track
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        return "<Span %s #%d %.6fs>" % (self.name, self.sid, self.duration)


class SpanTracer:
    """Records spans; parents come from the active context-manager stack.

    ``log`` (a :class:`repro.owl.runlog.RunLog`, or None) receives one
    ``begin`` and one ``end`` event per span, through its ``span_begin``
    and ``span_end``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 log=None):
        self._clock = clock
        self.origin = clock()
        self.spans: List[Span] = []
        self.log = log
        self._stack: List[Span] = []
        self._next_id = 1
        self._next_track = 1

    # ------------------------------------------------------------------
    # recording

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(name, self._next_id, parent=parent,
                    start=self._clock(), attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        if self.log is not None:
            self.log.span_begin(span, self._ts(span.start))
        return span

    def finish(self, span: Span, **attrs) -> Span:
        span.attrs.update(attrs)
        return self._end(span, self._clock())

    def _end(self, span: Span, end: float) -> Span:
        self._close(span, end)
        if self.log is not None:
            self.log.span_end(span, self._ts(end))
        return span

    def _close(self, span: Span, end: float) -> None:
        span.end = end
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order finishes
            self._stack.remove(span)

    @contextmanager
    def span(self, name: str, **attrs):
        """A span over the ``with`` body; a body that raises closes it
        without an ``end`` event, so the log shows it unfinished."""
        span = self.begin(name, **attrs)
        try:
            yield span
        except BaseException:
            self._close(span, self._clock())
            raise
        self.finish(span)

    def instant(self, name: str, **attrs) -> Span:
        """A zero-duration marker under the current span."""
        span = self.begin(name, **attrs)
        return self._end(span, span.start)

    def marker(self, name: str, **attrs) -> Span:
        """The ``cached=True`` stand-in of work answered from the result
        cache, with the attrs of the live span it replaces (spans are
        never cached: invariant 3)."""
        return self.finish(self.begin(name, **attrs, cached=True))

    # ------------------------------------------------------------------
    # worker round-trip

    def export_payload(self) -> List[Dict]:
        """All spans as plain dicts, times relative to this trace's origin.

        The picklable boundary format of :mod:`repro.owl.batch` workers.
        """
        return [
            {
                "name": span.name,
                "id": span.sid,
                "parent": span.parent,
                "start": span.start - self.origin,
                "end": (span.end if span.end is not None else span.start)
                       - self.origin,
                "attrs": span.attrs,
            }
            for span in self.spans
        ]

    def adopt(self, payload: Sequence[Dict], parent: Optional[Span] = None,
              track: Optional[int] = None) -> List[Span]:
        """Graft a worker's exported spans under ``parent`` (default: the
        current span).

        Ids are remapped into this tracer's sequence, times are shifted so
        the group begins at the parent's start (durations are preserved; the
        worker's clock domain is meaningless here), and the whole group lands
        on a fresh Chrome track so its B/E events nest independently.
        Callers must adopt in deterministic (seed/report) order — that is
        what keeps the tree identical across job counts.
        """
        if not payload:
            return []
        if parent is None:
            parent = self.current
        if track is None:
            track = self._next_track
            self._next_track += 1
        id_map: Dict[int, int] = {}
        for item in payload:
            id_map[item["id"]] = self._next_id
            self._next_id += 1
        base = parent.start if parent is not None else self.origin
        floor = min(item["start"] for item in payload)
        adopted: List[Span] = []
        for item in payload:
            raw_parent = item["parent"]
            span = Span(
                item["name"], id_map[item["id"]],
                parent=(
                    id_map[raw_parent] if raw_parent in id_map
                    else (parent.sid if parent is not None else None)
                ),
                track=track,
                start=base + (item["start"] - floor),
                end=base + (item["end"] - floor),
                attrs=dict(item["attrs"]),
            )
            self.spans.append(span)
            adopted.append(span)
        if self.log is not None:
            self._log_group(adopted)
        return adopted

    def _log_group(self, group: List[Span]) -> None:
        """Log an adopted group in the nesting order a serial run writes:
        each span's ``begin``, its children, then its ``end``."""
        children: Dict[int, List[Span]] = {}
        ids = {span.sid for span in group}
        for span in group:
            if span.parent in ids:
                children.setdefault(span.parent, []).append(span)

        def walk(span: Span) -> None:
            self.log.span_begin(span, self._ts(span.start))
            for child in children.get(span.sid, ()):
                walk(child)
            self.log.span_end(span, self._ts(span.end))

        for span in group:
            if span.parent not in ids:
                walk(span)

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Optional[Span]) -> List[Span]:
        parent_id = span.sid if span is not None else None
        return [s for s in self.spans if s.parent == parent_id]

    def roots(self) -> List[Span]:
        known = {span.sid for span in self.spans}
        return [s for s in self.spans
                if s.parent is None or s.parent not in known]

    def structure(self) -> List:
        """The span tree as nested ``(name, children)`` tuples, in record
        order — the job-count-invariant shape of a run."""
        children: Dict[Optional[int], List[Span]] = {}
        known = {span.sid for span in self.spans}
        for span in self.spans:
            parent = span.parent if span.parent in known else None
            children.setdefault(parent, []).append(span)

        def render(span: Span):
            return (span.name,
                    [render(child) for child in children.get(span.sid, [])])

        return [render(span) for span in children.get(None, [])]

    def slowest(self, count: int = 10,
                exclude: Iterable[str] = ()) -> List[Span]:
        """The ``count`` longest spans, slowest first."""
        excluded = set(exclude)
        candidates = [s for s in self.spans
                      if s.end is not None and s.name not in excluded]
        candidates.sort(key=lambda s: -s.duration)
        return candidates[:count]

    # ------------------------------------------------------------------
    # export

    def _ts(self, value: float) -> float:
        return (value - self.origin) * 1e6  # microseconds

    def chrome_trace(self) -> Dict:
        """The run as Chrome ``trace_event`` JSON (B/E duration events).

        Events are generated by a per-track tree walk (so every ``E`` closes
        the matching ``B`` even under timestamp ties) and then sorted by
        timestamp with the walk order as the tie-breaker, which keeps ``ts``
        monotone for the whole file.
        """
        children: Dict[int, List[Span]] = {}
        by_track: Dict[int, List[Span]] = {}
        track_ids = {span.sid: span.track for span in self.spans}
        for span in self.spans:
            by_track.setdefault(span.track, []).append(span)
            if span.parent is not None and \
                    track_ids.get(span.parent) == span.track:
                children.setdefault(span.parent, []).append(span)

        events: List[Tuple[float, int, Dict]] = []
        seq = [0]

        def emit(span: Span) -> None:
            end = span.end if span.end is not None else span.start
            events.append((self._ts(span.start), seq[0], {
                "name": span.name, "ph": "B", "cat": "owl",
                "ts": round(self._ts(span.start), 3), "pid": 1,
                "tid": span.track,
                "args": {key: _json_safe(value)
                         for key, value in span.attrs.items()},
            }))
            seq[0] += 1
            for child in children.get(span.sid, []):
                emit(child)
            events.append((self._ts(end), seq[0], {
                "name": span.name, "ph": "E", "cat": "owl",
                "ts": round(self._ts(end), 3), "pid": 1, "tid": span.track,
            }))
            seq[0] += 1

        for track in sorted(by_track):
            in_track = set(s.sid for s in by_track[track])
            for span in by_track[track]:
                if span.parent is None or span.parent not in in_track:
                    emit(span)
        events.sort(key=lambda item: (item[0], item[1]))
        return {
            "traceEvents": [event for _, _, event in events],
            "displayTimeUnit": "ms",
        }

    def save_chrome(self, path: str) -> str:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")
        return path

    def __repr__(self) -> str:
        return "<SpanTracer %d spans>" % len(self.spans)


def _json_safe(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return str(value)


@contextmanager
def maybe_span(tracer: Optional[SpanTracer], name: str, **attrs):
    """A span when a tracer is present, a no-op otherwise.

    The instrumentation hook used throughout the detectors and verifiers,
    which all accept ``tracer=None``.
    """
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span
