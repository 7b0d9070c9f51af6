"""The run log: one JSON-lines event log per pipeline run.

``owl watch`` follows it live, ``owl status`` summarizes it and ``owl
resume`` finishes the run it describes; all three are views over one
parsed :class:`RunState`.  Lines go through :mod:`repro.jsonl`, so a
killed run leaves a readable prefix (at worst one torn tail, dropped and
counted) and a damaged interior line fails loudly with file and line.

Layout (one event per line)::

    {"event": "run_begin", "schema": 1, "program": "apache", "jobs": 2,
     "cache_dir": "...", "export_path": null, "metrics_path": "m.json",
     "resumed": false, "torn": 0, "explore": false, "cache": true,
     "replay": false, "pid": 4242, "seq": 0, "wall": 1.7e9}
    {"event": "stage_begin", "stage": "detect", ...}
    {"event": "seed_done", "stage": "detect", "seed": 0, "detector": "tsan",
     "steps": 812, "reports": 3, "cached": false, ...}
    {"event": "wave_done", "index": 0, "seeds": [0, 1, 2, 3], ...}
    {"event": "stage_end", "stage": "detect", "items": 16, "runs": 20,
     "cache_hits": 0, "cache_misses": 20, ...}
    {"event": "item_done", "stage": "race_verification", "index": 0,
     "item": "r13-28", "verified": true, "cached": false, ...}
    {"event": "run_end", "raw_reports": 16, "remaining": 4, "attacks": 1,
     ...}

``wave_done`` appears only in exploring runs.  Every event carries ``seq``
and ``wall``.  Apart from those, ``pid``, ``cached``, the run-configuration
fields of ``run_begin`` and the stage cache counts, a run's events are the
same at any job count, cached or not.

A killed run leaves a log without ``run_end``.  :func:`resume` appends a
``run_begin`` with ``resumed: true`` and the torn count of the append, then
re-runs the pipeline against the same result cache: finished work is a
cache hit and only the interrupted tail executes.  It refuses a run whose
``run_begin`` says it explored or replayed: the log does not hold those
policies, so a resume would run a different pipeline.

Writing is best effort: the first ``OSError`` stops the log and is counted
in :attr:`RunLog.write_errors`, and the run carries on.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro import jsonl

#: Version stamped into every ``run_begin`` event.
RUNLOG_SCHEMA = 1


def runlog_path(directory: str, program: str) -> str:
    """Where a ``--cache`` run of ``program`` logs (and resume looks)."""
    return os.path.join(directory, "run_%s.jsonl" % program)


class RunLog:
    """The event writer of one run (and of each resume of it).

    ``export_path``/``metrics_path`` name the files the run writes, so a
    resume can rewrite them.  A fresh log replaces any file at ``path``;
    ``resumed=True`` appends to it instead.
    """

    def __init__(self, path: str, export_path: Optional[str] = None,
                 metrics_path: Optional[str] = None, resumed: bool = False):
        self.path = path
        self.export_path = export_path
        self.metrics_path = metrics_path
        self.resumed = resumed
        self.seq = 0
        #: Failed writes; the first one stops the log.
        self.write_errors = 0
        self._writer = None
        self._closed = False

    def emit(self, event: str, **fields) -> None:
        """Append one event; ``run_begin`` also gets the run's
        configuration (schema, outputs, resumed, torn count, pid)."""
        if self._closed:
            return
        record = {"event": event, "seq": self.seq, "wall": time.time()}
        try:
            if self._writer is None:
                self._writer = jsonl.Writer(self.path, append=self.resumed)
            if event == "run_begin":
                record.update(
                    schema=RUNLOG_SCHEMA, export_path=self.export_path,
                    metrics_path=self.metrics_path, resumed=self.resumed,
                    torn=self._writer.torn, pid=os.getpid())
            record.update(fields)
            self._writer.write(record)
        except OSError:
            self.write_errors += 1
            self.close()
            return
        self.seq += 1

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
    ``run_begin`` (the run's configuration); the progress counters cover
    the events since it.
    """

    def __init__(self, path: str):
        self.path = path
        self.begin: Dict = {}
        self.end: Optional[Dict] = None
        self.resumes = 0
        #: Torn tails dropped: by each resume's append, and by this read.
        self.torn = 0
        self.stage: Optional[str] = None
        self.seeds = self.waves = self.items = 0

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
            self.begin, self.end, self.stage = event, None, None
            self.seeds = self.waves = self.items = 0
        elif kind in ("stage_begin", "stage_end"):
            self.stage = event.get("stage") if kind == "stage_begin" else None
        elif kind == "seed_done":
            self.seeds += 1
        elif kind == "wave_done":
            self.waves += 1
        elif kind == "item_done":
            self.items += 1
        elif kind == "run_end":
            self.end = event

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
            self.program, self.begin.get("jobs", "?"), state, extras)


def load_run(path: str) -> RunState:
    """Parse a run log (``ValueError`` on a damaged interior line)."""
    events, torn = jsonl.read(path)
    state = RunState(path)
    for event in events:
        state.absorb(event)
    state.torn += torn
    return state


class CannotResume(ValueError):
    """The log's run used an option the log cannot rebuild."""


#: ``run_begin`` flags of options whose configuration the log does not
#: hold, so a resume would silently run a different pipeline.
_UNREBUILDABLE = (
    ("explore", "--explore/--predict (the explore and predict policies)"),
    ("replay", "--replay (the replayed schedule records)"),
)


def resume(path: str, jobs: Optional[int] = None):
    """Finish the run a log describes; returns ``(result, state)``.

    Re-runs the pipeline with the logged program, job count and cache
    directory, appending to the same log: completed work is a warm cache
    hit, only the interrupted tail executes.  The logged export and metrics
    files are (re)written.  ``result`` is None when the log already
    records a completed run; ``state`` is the log as found.

    Raises :class:`CannotResume`, touching neither the log nor the
    logged outputs, when the run used an option the log does not record
    (:data:`_UNREBUILDABLE`).
    """
    from repro.apps.registry import spec_by_name
    from repro.owl.batch import BatchPolicy
    from repro.owl.cache import ResultCache
    from repro.owl.pipeline import OwlPipeline

    state = load_run(path)
    if not state.begun:
        raise ValueError("run log %s has no run_begin event" % path)
    if state.completed:
        return None, state
    begin = state.begin
    for flag, option in _UNREBUILDABLE:
        if begin.get(flag):
            raise CannotResume(
                "cannot resume %s: the run used %s, which its log does "
                "not record; run it again instead" % (path, option))
    cache_dir = begin.get("cache_dir")
    log = RunLog(path, export_path=begin.get("export_path"),
                 metrics_path=begin.get("metrics_path"), resumed=True)
    try:
        result = OwlPipeline(
            spec_by_name(state.program),
            jobs=jobs if jobs is not None else begin.get("jobs", 1),
            cache=ResultCache(cache_dir) if cache_dir else None,
            policy=BatchPolicy(),
            log=log,
        ).run()
    finally:
        log.close()
    if log.export_path:
        from repro.owl.export import save_result

        save_result(result, log.export_path)
    if log.metrics_path:
        result.metrics.save(log.metrics_path)
    return result, state


def render_event(event: Dict) -> Optional[str]:
    """One human-readable ``owl watch`` line (None: not worth a line)."""
    kind = event.get("event")
    if kind == "run_begin":
        extras = []
        if event.get("resumed"):
            extras.append("resumed")
        if event.get("explore"):
            extras.append("explore")
        if event.get("cache"):
            extras.append("cache")
        return "run %s (jobs=%s%s)" % (
            event.get("program"), event.get("jobs"),
            "".join(", " + extra for extra in extras))
    if kind == "stage_begin":
        return "stage %s ..." % event.get("stage")
    if kind == "stage_end":
        parts = ["stage %s done" % event.get("stage")]
        if event.get("items") is not None:
            parts.append("%s items" % event["items"])
        if event.get("cache_hits") or event.get("cache_misses"):
            parts.append("cache %s hit/%s miss" % (
                event.get("cache_hits", 0), event.get("cache_misses", 0)))
        return "  ".join(parts)
    if kind == "seed_done":
        return "  seed %-4s %-5s steps=%-7s reports=%s%s" % (
            event.get("seed"), event.get("detector", ""),
            event.get("steps"), event.get("reports"),
            "  [cached]" if event.get("cached") else "")
    if kind == "wave_done":
        return "  wave %s: seeds %s  %s/d%s  +%s pairs (%s total)%s%s" % (
            event.get("index"), event.get("seeds"),
            event.get("scheduler"), event.get("depth"),
            event.get("new_pairs"), event.get("total_pairs"),
            "  [dry]" if event.get("dry") else "",
            "  [saturated]" if event.get("saturated") else "")
    if kind == "item_done":
        verdict = ""
        if "verified" in event:
            verdict = "verified" if event["verified"] else "unverified"
        elif "realized" in event:
            verdict = "attack" if event["realized"] else "benign"
        return "  %s[%s] %s  %s%s" % (
            event.get("stage"), event.get("index"), event.get("item"),
            verdict, "  [cached]" if event.get("cached") else "")
    if kind == "run_end":
        return "run complete: %s raw reports -> %s remaining, %s attacks" % (
            event.get("raw_reports"), event.get("remaining"),
            event.get("attacks"))
    return None
