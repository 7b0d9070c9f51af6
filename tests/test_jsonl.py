"""Crash injection for every on-disk artifact: the JSON-lines logs
(repro.jsonl) and the result cache's entries (repro.owl.cache).

Each artifact is cut at every byte offset, as a writer killed mid-write
would leave it.  Reading a cut log must return exactly the records whose
newline survived, with a torn count of 1 exactly when the cut falls
mid-line; a run log (the run's span events) must take a resume after
any cut; a schedule log must
load whole or not at all; a cut cache entry must read as one counted
corrupt miss, be deleted, and take the next store.  One damaged interior
line must make every reader fail with the file and line.
"""

import glob
import json
import os
from pathlib import Path

import pytest

from repro import jsonl
from repro.apps.registry import spec_by_name
from repro.owl.cache import ResultCache
from repro.owl.pipeline import OwlPipeline
from repro.owl.replay import record_spec_seed
from repro.owl.runlog import RunLog, load_run, runlog_path
from repro.runtime.record import ScheduleLog
from repro.runtime.spans import SpanTracer


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """``{kind: bytes}`` of one artifact of every kind."""
    root = tmp_path_factory.mktemp("artifacts")
    spec = spec_by_name("libsafe")
    cache_dir = str(root / "cache")
    log = RunLog(runlog_path(cache_dir, spec.name))
    OwlPipeline(spec, cache=ResultCache(cache_dir), log=log).run()
    log.close()
    entry = sorted(glob.glob(os.path.join(
        cache_dir, "race_verify", "*", "*.json")))[0]

    memcached = spec_by_name("memcached")
    schedule = str(root / "memcached_seed0000.jsonl")
    record_spec_seed(memcached, memcached.build(), 0)[0].save(schedule)

    spans = str(root / "spans.jsonl")
    span_log = RunLog(spans)
    tracer = SpanTracer(log=span_log)
    with tracer.span("pipeline", program="demo"):
        for seed in range(4):
            with tracer.span("detect_seed", seed=seed, reports=seed):
                pass
    span_log.close()

    paths = {"runlog": log.path, "schedule": schedule, "spans": spans,
             "cache_entry": entry}
    return {kind: Path(path).read_bytes() for kind, path in paths.items()}


def test_run_log_carries_the_span_events(artifacts, tmp_path):
    """The run log cut below is the run's one event stream: its span tree
    with a begin and an end per span between run_begin and run_end."""
    path = str(tmp_path / "run_libsafe.jsonl")
    with open(path, "wb") as handle:
        handle.write(artifacts["runlog"])
    events = [event["event"] for event in jsonl.read(path)[0]]
    assert events[0] == "run_begin" and events[-1] == "run_end"
    assert set(events[1:-1]) == {"begin", "end"}
    assert events.count("begin") == events.count("end") == \
        len(load_run(path).tracer())


def cuts(data):
    """``(cut, complete_lines, mid_line)`` for every byte offset."""
    for cut in range(len(data) + 1):
        head = data[:cut]
        yield cut, head.count(b"\n"), not (cut == 0 or head.endswith(b"\n"))


@pytest.mark.parametrize("kind", ["runlog", "schedule", "spans"])
def test_read_returns_exactly_the_newline_terminated_records(
        artifacts, kind, tmp_path):
    data = artifacts[kind]
    path = str(tmp_path / "cut.jsonl")
    with open(path, "wb") as handle:
        handle.write(data)
    records, torn = jsonl.read(path)
    assert torn == 0 and len(records) == data.count(b"\n")
    for cut, complete, mid_line in cuts(data):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        assert jsonl.read(path) == (records[:complete], int(mid_line)), cut


def test_schedule_log_loads_whole_or_raises(artifacts, tmp_path):
    data = artifacts["schedule"]
    path = str(tmp_path / "memcached_seed0000.jsonl")
    with open(path, "wb") as handle:
        handle.write(data)
    whole = ScheduleLog.load(path).to_payload()
    for cut, _, _ in cuts(data):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        if cut == len(data):
            assert ScheduleLog.load(path).to_payload() == whole
            continue
        with pytest.raises(ValueError) as excinfo:
            ScheduleLog.load(path)
        assert path in str(excinfo.value), cut


def test_cache_entry_hits_whole_or_misses_counted(artifacts, tmp_path):
    data = artifacts["cache_entry"]
    envelope = json.loads(data)
    stage, key, value = envelope["stage"], envelope["key"], envelope["value"]
    cache = ResultCache(str(tmp_path))
    path = cache.put(stage, key, value)

    def counters():
        return cache.hits, cache.misses, cache.corrupt

    for cut, _, _ in cuts(data):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        hits, misses, corrupt = counters()
        got = cache.get(stage, key)
        if cut == len(data):
            assert (got, counters()) == (value, (hits + 1, misses, corrupt))
            continue
        assert got is None, cut
        assert counters() == (hits, misses + 1, corrupt + 1), cut
        assert not os.path.exists(path), cut
        assert cache.put(stage, key, value) == path
        assert cache.get(stage, key) == value, cut


def test_run_log_takes_a_resume_after_any_cut(artifacts, tmp_path):
    data = artifacts["runlog"]
    path = str(tmp_path / "run_libsafe.jsonl")
    with open(path, "wb") as handle:
        handle.write(data)
    records, _ = jsonl.read(path)
    for cut, complete, mid_line in cuts(data):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        log = RunLog(path, resumed=True)
        log.emit("run_begin", program="libsafe", jobs=1)
        log.close()
        events, torn = jsonl.read(path)
        assert torn == 0 and events[:-1] == records[:complete], cut
        assert (events[-1]["resumed"], events[-1]["torn"]) == (
            True, int(mid_line))


class TestDamagedInteriorLine:
    """Every reader names the file and the line of interior damage."""

    @pytest.fixture
    def damaged(self, artifacts, tmp_path):
        lines = artifacts["runlog"].split(b"\n")
        lines[3] = lines[3][:20]
        path = runlog_path(str(tmp_path), "libsafe")
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        return path

    def test_load_run(self, damaged):
        with pytest.raises(ValueError, match="%s: corrupt record on line 4"
                           % damaged):
            load_run(damaged)

    @pytest.mark.parametrize("argv", [
        ["status", "{dir}"],
        ["watch", "{log}", "--timeout", "0.1"],
        ["resume", "libsafe", "--log", "{log}"],
    ])
    def test_cli(self, damaged, argv, capsys):
        from repro.cli import main

        argv = [arg.format(dir=os.path.dirname(damaged), log=damaged)
                for arg in argv]
        assert main(argv) == 1
        assert "%s: corrupt record on line 4" % damaged in \
            capsys.readouterr().err
