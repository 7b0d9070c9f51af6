"""The run log: one JSON-lines event stream per pipeline run.

A run writes its configuration, then every span of its span tree
(:mod:`repro.runtime.spans`) as it records it, then its outcome.  ``owl
watch`` follows the log live, ``owl status`` summarizes it, ``owl
resume`` finishes the run it describes and ``owl trace`` rebuilds its
span tree; all four are views over one parsed :class:`RunState`, and this
module is the only code that knows the layout.  Lines go through
:mod:`repro.jsonl`, so a killed run leaves a readable prefix (at worst
one torn tail, dropped and counted) and a damaged interior line fails
loudly with file and line.

Layout (one event per line)::

    {"event": "run_begin", "schema": 2, "program": "apache",
     "cache_dir": "...", "config": {"jobs": 2, "explore": null,
     "profile": null, "item_timeout": null, "retries": 2},
     "replay": false, "command": "detect", "export_path": null,
     "metrics_path": "m.json", "resumed": false, "torn": 0, "pid": 4242,
     "seq": 0, "wall": 1.7e9}
    {"event": "begin", "id": 2, "parent": 1, "name": "stage:detect",
     "track": 0, "ts_us": 41.2, ...}
    {"event": "begin", "id": 3, "parent": 2, "name": "detect_seed", ...}
    {"event": "end", "id": 3, "name": "detect_seed", "ts_us": 9120.5,
     "attrs": {"seed": 0, "detector": "tsan", "steps": 812,
               "reason": "finished", "reports": 3}, ...}
    {"event": "end", "id": 2, "name": "stage:detect", "attrs": {
     "unit": "reports", "items": 16, "runs": 20, "vm_steps": 16240,
     "accesses": 2210, "cache_hits": 0, "cache_misses": 20}, ...}
    {"event": "end", "id": 31, "name": "verify_report", "attrs": {
     "report": "r13-28", "verified": true, "runs_used": 1, ...}, ...}
    {"event": "run_end", "raw_reports": 16, "remaining": 4, "attacks": 1,
     ...}

``config`` is the run's whole :class:`repro.owl.pipeline.PipelineConfig`;
``command`` names the CLI command that wrote the log (null for a library
run).  Each span writes one ``begin`` (its id, parent, name and Chrome
track) when it opens and one ``end`` (its final ``attrs``) when its body
completes; a body that raised writes no ``end``.  ``ts_us`` is
microseconds from the run's tracer origin.  A ``stage:<name>`` span's
attrs are the stage's metrics row (:meth:`StageMetrics.counts`); an
exploring run adds one instant ``wave`` span per wave; a result-cache
hit is one ``cached=True`` marker span carrying the live span's attrs.
Every event carries ``seq`` and ``wall``.  Apart from those, ``pid``,
``ts_us``, ``track``, the run-configuration fields of ``run_begin`` and
the stage cache counts, a run's events are the same at any job count
(cold cache or none).

A killed run leaves a log without ``run_end``.  :func:`resume` rebuilds
the logged config, appends a ``run_begin`` with ``resumed: true`` and the
torn count of the append, then re-runs the same pipeline against the same
result cache: finished work is a cache hit and only the interrupted tail
executes.  It refuses what a log cannot rebuild: a ``--replay`` run, an
``owl fix`` run (the repair stage is not a pipeline stage) and a log
whose ``run_begin`` holds no config.

Writing is best effort: the first ``OSError`` stops the log and is counted
in :attr:`RunLog.write_errors`, and the run carries on.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro import jsonl
from repro.runtime.spans import Span, SpanTracer

#: Version stamped into every ``run_begin`` event: a log of any other
#: schema is refused, not misread.
RUNLOG_SCHEMA = 2

#: Span names behind the progress counts of :class:`RunState`.
STAGE = "stage:"
SEED = "detect_seed"
WAVE = "wave"
ITEMS = ("verify_report", "verify_vulnerability")


def runlog_path(directory: str, program: str) -> str:
    """Where a ``--cache`` run of ``program`` logs (and resume looks)."""
    return os.path.join(directory, "run_%s.jsonl" % program)


class RunLog:
    """The event writer of one run (and of each resume of it).

    ``export_path``/``metrics_path`` name the files the run writes, so a
    resume can rewrite them; ``command`` names the CLI command running.
    A fresh log replaces any file at ``path``; ``resumed=True`` appends to
    it instead.  The run's :class:`repro.runtime.spans.SpanTracer` writes
    its spans through :meth:`span_begin` and :meth:`span_end`.
    """

    def __init__(self, path: str, export_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 command: Optional[str] = None, resumed: bool = False):
        self.path = path
        self.export_path = export_path
        self.metrics_path = metrics_path
        self.command = command
        self.resumed = resumed
        self.seq = 0
        #: Failed writes; the first one stops the log.
        self.write_errors = 0
        self._writer = None
        self._closed = False

    def emit(self, event: str, **fields) -> None:
        """Append one event; ``run_begin`` also gets the log's part of
        the run's configuration (schema, command, outputs, resumed, torn
        count, pid)."""
        if self._closed:
            return
        record = {"event": event, "seq": self.seq, "wall": time.time()}
        try:
            if self._writer is None:
                self._writer = jsonl.Writer(self.path, append=self.resumed)
            if event == "run_begin":
                record.update(
                    schema=RUNLOG_SCHEMA, command=self.command,
                    export_path=self.export_path,
                    metrics_path=self.metrics_path, resumed=self.resumed,
                    torn=self._writer.torn, pid=os.getpid())
            record.update(fields)
            self._writer.write(record)
        except OSError:
            self.write_errors += 1
            self.close()
            return
        self.seq += 1

    def span_begin(self, span: Span, ts_us: float) -> None:
        self.emit("begin", id=span.sid, parent=span.parent, name=span.name,
                  track=span.track, ts_us=round(ts_us, 3))

    def span_end(self, span: Span, ts_us: float) -> None:
        self.emit("end", id=span.sid, name=span.name,
                  ts_us=round(ts_us, 3), attrs=span.attrs)

    def close(self) -> None:
        self._closed = True
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except OSError:
                pass  # only a failed write leaves data unflushed: counted


class RunState:
    """What a run log says about its run.

    Fold events in with :meth:`absorb`.  ``begin`` is the latest
    ``run_begin`` (the run's configuration); the progress counters and
    the span tree cover the events since it.
    """

    def __init__(self, path: str):
        self.path = path
        self.begin: Dict = {}
        self.end: Optional[Dict] = None
        self.resumes = 0
        #: Torn tails dropped: by each resume's append, and by this read.
        self.torn = 0
        self._reset()

    def _reset(self) -> None:
        #: The open stage span's stage name.
        self.stage: Optional[str] = None
        #: Items finished in that stage.
        self.stage_items = 0
        self.seeds = self.waves = self.items = 0
        self._spans: Dict[int, Span] = {}

    @property
    def begun(self) -> bool:
        return bool(self.begin)

    @property
    def completed(self) -> bool:
        return self.end is not None

    @property
    def program(self) -> Optional[str]:
        return self.begin.get("program")

    def absorb(self, event: Dict) -> None:
        kind = event.get("event")
        if kind == "run_begin":
            if event.get("schema") != RUNLOG_SCHEMA:
                raise ValueError(
                    "run log %s declares unsupported schema %r "
                    "(supported: %d)"
                    % (self.path, event.get("schema"), RUNLOG_SCHEMA))
            self.resumes += bool(event.get("resumed"))
            self.torn += event.get("torn", 0)
            self.begin, self.end = event, None
            self._reset()
        elif kind == "begin":
            name = event["name"]
            self._spans[event["id"]] = Span(
                name, event["id"], parent=event["parent"],
                track=event["track"], start=event["ts_us"] / 1e6)
            if name.startswith(STAGE):
                self.stage, self.stage_items = name[len(STAGE):], 0
        elif kind == "end":
            span = self._spans.get(event["id"])
            if span is not None:
                span.end = event["ts_us"] / 1e6
                span.attrs = event["attrs"]
            name = event["name"]
            if name.startswith(STAGE):
                self.stage = None
            elif name == SEED:
                self.seeds += 1
            elif name == WAVE:
                self.waves += 1
            elif name in ITEMS:
                self.items += 1
                self.stage_items += 1
        elif kind == "run_end":
            self.end = event

    def tracer(self) -> SpanTracer:
        """The span tree since the latest ``run_begin``, as logged (times
        in seconds from the run's tracer origin; a span whose ``end`` was
        never written stays open)."""
        tracer = SpanTracer(clock=lambda: 0.0)
        tracer.spans = list(self._spans.values())
        return tracer

    def summary(self) -> str:
        """One line: ``owl status`` prints it per log, ``owl resume``
        before resuming."""
        if not self.begun:
            return "%s: empty run log" % self.path
        if self.completed:
            state = "complete: %s raw -> %s remaining, %s attacks" % (
                self.end.get("raw_reports"), self.end.get("remaining"),
                self.end.get("attacks"))
        else:
            state = "unfinished (stage %s)" % (self.stage or "-")
        extras = "  seeds=%d" % self.seeds
        for name, count in (("items", self.items), ("waves", self.waves),
                            ("resumed", self.resumes), ("torn", self.torn)):
            if count:
                extras += "  %s=%d" % (name, count)
        return "%-14s jobs=%-3s %s%s" % (
            self.program, (self.begin.get("config") or {}).get("jobs", "?"),
            state, extras)


def load_run(path: str) -> RunState:
    """Parse a run log (``ValueError`` on a damaged interior line)."""
    events, torn = jsonl.read(path)
    state = RunState(path)
    for event in events:
        state.absorb(event)
    state.torn += torn
    return state


class CannotResume(ValueError):
    """The log's run cannot be rebuilt from the log."""


def _refusal(begin: Dict) -> Optional[str]:
    """Why the run ``begin`` opened cannot be resumed (None: it can)."""
    if begin.get("replay"):
        return ("the run replayed recorded schedules (--replay), which its "
                "log does not record")
    if begin.get("command") == "fix":
        return ("it is an `owl fix` run, and resume does not rebuild the "
                "repair stage")
    if "config" not in begin:
        return "its run_begin records no pipeline config"
    return None


def resume(path: str, jobs: Optional[int] = None):
    """Finish the run a log describes; returns ``(result, state)``.

    Re-runs the pipeline with the logged program, config (``jobs``
    overrides its job count) and cache directory, appending to the same
    log: completed work is a warm cache hit, only the interrupted tail
    executes.  The logged export and metrics files are (re)written.
    ``result`` is None when the log already records a completed run;
    ``state`` is the log as found.

    Raises :class:`CannotResume`, touching neither the log nor the
    logged outputs, when the log cannot rebuild the run (:func:`_refusal`).
    """
    from repro.apps.registry import spec_by_name
    from repro.owl.cache import ResultCache
    from repro.owl.pipeline import OwlPipeline, PipelineConfig

    state = load_run(path)
    if not state.begun:
        raise ValueError("run log %s has no run_begin event" % path)
    if state.completed:
        return None, state
    begin = state.begin
    refusal = _refusal(begin)
    if refusal is not None:
        raise CannotResume("cannot resume %s: %s; run it again instead"
                           % (path, refusal))
    config = PipelineConfig.from_dict(begin["config"])
    if jobs is not None:
        config = config._replace(jobs=jobs)
    cache_dir = begin.get("cache_dir")
    log = RunLog(path, export_path=begin.get("export_path"),
                 metrics_path=begin.get("metrics_path"),
                 command=begin.get("command"), resumed=True)
    try:
        result = OwlPipeline(
            spec_by_name(state.program), config,
            cache=ResultCache(cache_dir) if cache_dir else None, log=log,
        ).run()
    finally:
        log.close()
    if log.export_path:
        from repro.owl.export import save_result

        save_result(result, log.export_path)
    if log.metrics_path:
        result.metrics.save(log.metrics_path)
    return result, state


def render_event(event: Dict, state: RunState) -> Optional[str]:
    """One human-readable ``owl watch`` line (None: not worth a line).

    ``state`` has already absorbed ``event``: it knows which stage an
    item belongs to and the item's index in it.
    """
    kind = event.get("event")
    if kind == "run_begin":
        config = event.get("config") or {}
        extras = [name for name, on in (
            ("resumed", event.get("resumed")),
            ("explore", config.get("explore")),
            ("cache", event.get("cache_dir"))) if on]
        return "run %s (jobs=%s%s)" % (
            event.get("program"), config.get("jobs"),
            "".join(", " + extra for extra in extras))
    if kind == "run_end":
        return "run complete: %s raw reports -> %s remaining, %s attacks" % (
            event.get("raw_reports"), event.get("remaining"),
            event.get("attacks"))
    name = event.get("name", "")
    if kind == "begin" and name.startswith(STAGE):
        return "stage %s ..." % name[len(STAGE):]
    if kind != "end":
        return None
    attrs = event.get("attrs", {})
    cached = "  [cached]" if attrs.get("cached") else ""
    if name.startswith(STAGE):
        parts = ["stage %s done" % name[len(STAGE):],
                 "%s items" % attrs.get("items")]
        if attrs.get("cache_hits") or attrs.get("cache_misses"):
            parts.append("cache %s hit/%s miss" % (
                attrs.get("cache_hits", 0), attrs.get("cache_misses", 0)))
        return "  ".join(parts)
    if name == SEED:
        return "  seed %-4s %-5s steps=%-7s reports=%s%s" % (
            attrs.get("seed"), attrs.get("detector", ""),
            attrs.get("steps"), attrs.get("reports"), cached)
    if name == WAVE:
        return "  wave %s: seeds %s  %s/d%s  +%s pairs (%s total)%s%s" % (
            attrs.get("index"), attrs.get("seeds"),
            attrs.get("scheduler"), attrs.get("depth"),
            attrs.get("new_pairs"), attrs.get("total_pairs"),
            "  [dry]" if attrs.get("dry") else "",
            "  [saturated]" if attrs.get("saturated") else "")
    if name in ITEMS:
        if name == "verify_report":
            item = attrs.get("report")
            verdict = "verified" if attrs.get("verified") else "unverified"
        else:
            item = attrs.get("site")
            verdict = "attack" if attrs.get("attack_realized") else "benign"
        return "  %s[%s] %s  %s%s" % (
            state.stage, state.stage_items - 1, item, verdict, cached)
    return None
