"""Tests for the run log as a live stream (repro.owl.runlog) and its
``owl watch``/``owl status`` views."""

import json
import threading
import time

import pytest

from repro import jsonl
from repro.detectors.predict import PredictPolicy
from repro.owl.explore import ExplorePolicy
from repro.owl.pipeline import PipelineConfig
from repro.owl.runlog import (
    RUNLOG_SCHEMA,
    RunLog,
    RunState,
    load_run,
    render_event,
    runlog_path,
)
from repro.runtime.spans import SpanTracer


def read_events(path):
    return jsonl.read(path)[0]


class TestEventFeed:
    def test_events_are_sequenced_json_lines(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="memcached", jobs=2, explore=True)
        with SpanTracer(log=log).span("detect_seed", seed=0) as span:
            span.attrs.update(steps=1551, reports=16)
        log.emit("run_end", raw_reports=16, remaining=4, attacks=0)
        log.close()
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "run_begin", "begin", "end", "run_end"]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert events[0]["program"] == "memcached"
        assert events[0]["resumed"] is False and events[0]["torn"] == 0
        assert events[0]["schema"] == RUNLOG_SCHEMA == 2
        assert events[2]["attrs"] == {"seed": 0, "steps": 1551,
                                      "reports": 16}
        assert all("wall" in e for e in events)

    def test_open_truncates_stale_feed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        stale = RunLog(path)
        stale.emit("run_begin", program="old", jobs=1)
        stale.close()
        log = RunLog(path)
        log.emit("run_begin", program="new", jobs=1)
        log.close()
        events = read_events(path)
        assert len(events) == 1
        assert events[0]["program"] == "new"

    def test_emit_after_close_is_a_no_op(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="demo", jobs=1)
        log.close()
        SpanTracer(log=log).instant("wave")  # must not raise or write
        assert len(read_events(path)) == 1

    def test_read_feed_skips_torn_final_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="demo", jobs=1)
        log.close()
        with open(path, "a") as handle:
            handle.write('{"event": "end", "na')  # writer died here
        events, torn = jsonl.read(path)
        assert [e["event"] for e in events] == ["run_begin"]
        assert torn == 1

    def test_read_feed_missing_file_is_empty(self, tmp_path):
        assert jsonl.read(str(tmp_path / "absent.jsonl")) == ([], 0)

    def test_feed_path_is_per_program(self, tmp_path):
        assert runlog_path(str(tmp_path), "apache").endswith(
            "run_apache.jsonl")

    def test_first_write_error_stops_the_log(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        log = RunLog(str(blocker / "run.jsonl"))  # parent is a file
        log.emit("run_begin", program="demo", jobs=1)
        SpanTracer(log=log).instant("wave")
        assert log.write_errors == 1


class TestFollowFeed:
    def test_follow_sees_events_written_after_attach(self, tmp_path):
        path = str(tmp_path / "run.jsonl")

        def writer():
            time.sleep(0.05)
            log = RunLog(path)
            log.emit("run_begin", program="demo", jobs=1)
            SpanTracer(log=log).instant("detect_seed", seed=0)
            time.sleep(0.05)
            log.emit("run_end", raw_reports=1, remaining=0, attacks=0)
            log.close()

        thread = threading.Thread(target=writer)
        thread.start()
        events = []
        try:
            for event in jsonl.follow(path, poll=0.01, timeout=5.0):
                events.append(event)
                if event["event"] == "run_end":
                    break
        finally:
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [e["event"] for e in events] == [
            "run_begin", "begin", "end", "run_end"]

    def test_follow_times_out_on_quiet_feed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="demo", jobs=1)
        log.close()
        events = list(jsonl.follow(path, poll=0.01, timeout=0.1))
        assert [e["event"] for e in events] == ["run_begin"]


def span_events(*spans):
    """``begin``/``end`` event pairs for ``(id, parent, name, attrs)``
    spans, each closed before the next opens."""
    events = []
    for sid, parent, name, attrs in spans:
        events.append({"event": "begin", "id": sid, "parent": parent,
                       "name": name, "track": 0, "ts_us": float(sid)})
        events.append({"event": "end", "id": sid, "name": name,
                       "ts_us": sid + 0.5, "attrs": attrs})
    return events


def rendered(events):
    state = RunState("run.jsonl")
    lines = []
    for event in events:
        state.absorb(event)
        lines.append(render_event(event, state))
    return state, lines


class TestRenderEvent:
    def test_known_events_render_one_line(self):
        begin = {"event": "run_begin", "schema": RUNLOG_SCHEMA,
                 "program": "apache",
                 "config": {"jobs": 2, "explore": {"max_seeds": 20}}}
        stage = [{"event": "begin", "id": 2, "parent": 1,
                  "name": "stage:race_verification", "track": 0,
                  "ts_us": 1.0}]
        items = span_events(
            (3, 2, "verify_report", {"report": "r1-2", "verified": True}),
            (4, 2, "verify_report", {"report": "r3-4", "verified": False,
                                     "cached": True}))
        others = span_events(
            (5, 1, "detect_seed", {"seed": 3, "detector": "tsan",
                                   "steps": 900, "reports": 2,
                                   "cached": True}),
            (6, 1, "wave", {"index": 1, "seeds": [4, 5], "scheduler": "pct",
                            "depth": 3, "new_pairs": 0, "total_pairs": 21,
                            "dry": True}),
            (7, 1, "verify_vulnerability", {"site": "log.c:12",
                                            "attack_realized": True}))
        end = {"event": "run_end", "raw_reports": 16, "remaining": 4,
               "attacks": 1}
        state, lines = rendered([begin] + stage + items + others + [end])
        assert "apache" in lines[0] and "explore" in lines[0]
        assert lines[1] == "stage race_verification ..."
        assert lines[3] == "  race_verification[0] r1-2  verified"
        assert lines[5] == \
            "  race_verification[1] r3-4  unverified  [cached]"
        assert lines[7] == ("  seed 3    tsan  steps=900     reports=2"
                            "  [cached]")
        assert "[dry]" in lines[9]
        assert "attack" in lines[11]
        assert lines[-1].startswith("run complete")
        assert (state.seeds, state.waves, state.items) == (1, 1, 3)

    def test_unknown_event_renders_nothing(self):
        state, lines = rendered([{"event": "mystery"}] + span_events(
            (1, None, "verify_attempt", {"seed": 0})))
        assert lines == [None, None, None]


def logged(tmp_path, name, program="libsafe", **options):
    """Run ``program``'s pipeline with a run log; ``(result, events)``."""
    from repro.apps.registry import spec_by_name
    from repro.owl.pipeline import OwlPipeline

    path = str(tmp_path / ("%s.jsonl" % name))
    log = RunLog(path)
    result = OwlPipeline(spec_by_name(program), log=log, **options).run()
    log.close()
    return result, read_events(path)


def span_names(events, kind):
    return [e["name"] for e in events if e["event"] == kind]


class TestPipelineFeed:
    def test_pipeline_streams_begin_stages_seeds_end(self, tmp_path):
        result, events = logged(tmp_path, "run", "memcached")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_begin" and kinds[-1] == "run_end"
        stages = [name for name in span_names(events, "begin")
                  if name.startswith("stage:")]
        assert stages == [name for name in span_names(events, "end")
                          if name.startswith("stage:")]
        assert stages == ["stage:" + stage.name
                          for stage in result.metrics.stages]
        assert stages[0] == "stage:detect" and len(stages) == 5
        assert span_names(events, "end").count("detect_seed") > 0
        # one begin and one end per span, the run's bracketing events aside
        assert kinds.count("begin") == kinds.count("end") == len(result.spans)
        # every line is valid JSON with a seq gap-free ordering
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_events_match_across_jobs_and_cache(self, tmp_path):
        """Serial uncached, serial cold-cache and pooled runs log the same
        events once observations, tracks and configuration are dropped."""
        from repro.owl.cache import ResultCache

        dropped = {"wall", "pid", "seq", "ts_us", "track"}
        configuration = {"schema", "cache_dir", "config", "command",
                         "export_path", "metrics_path", "resumed", "torn",
                         "replay"}
        cache_counts = {"cache_hits", "cache_misses"}

        def events(name, **options):
            return [{key: value if key != "attrs" else {
                         attr: setting for attr, setting in value.items()
                         if attr not in cache_counts}
                     for key, value in event.items()
                     if key not in dropped and not (
                         event["event"] == "run_begin"
                         and key in configuration)}
                    for event in logged(tmp_path, name, **options)[1]]

        serial = events("serial")
        assert span_names(serial, "end").count("verify_report") + \
            span_names(serial, "end").count("verify_vulnerability") == 6
        assert events("cold", cache=ResultCache(str(tmp_path / "c"))) \
            == serial
        assert events("pooled", jobs=2) == serial

    def test_a_stage_that_raises_logs_no_stage_end(self, tmp_path,
                                                   monkeypatch):
        from repro.apps.registry import spec_by_name
        from repro.owl import pipeline

        def crash(*args, **kwargs):
            raise RuntimeError("verifier crashed")

        monkeypatch.setattr(pipeline, "verify_races_batch", crash)
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        with pytest.raises(RuntimeError, match="verifier crashed"):
            pipeline.OwlPipeline(spec_by_name("libsafe"), log=log).run()
        log.close()
        assert [(e["event"], e["name"]) for e in read_events(path)
                if e.get("name", "").startswith("stage:")] == [
            ("begin", "stage:detect"), ("end", "stage:detect"),
            ("begin", "stage:schedule_reduction"),
            ("end", "stage:schedule_reduction"),
            ("begin", "stage:race_verification"),
        ]
        # neither the raising stage nor the pipeline span wrote an end
        assert "pipeline" not in span_names(read_events(path), "end")
        state = load_run(path)
        assert "unfinished (stage race_verification)" in state.summary()

    def test_watch_cli_renders_completed_feed(self, tmp_path, capsys):
        from repro.apps.registry import spec_by_name
        from repro.cli import main
        from repro.owl.pipeline import OwlPipeline

        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        OwlPipeline(spec_by_name("memcached"), log=log).run()
        log.close()
        assert main(["watch", path, "--timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert "run memcached" in out
        assert "run complete" in out

    def test_status_cli_summarizes_feeds(self, tmp_path, capsys):
        from repro.apps.registry import spec_by_name
        from repro.cli import main
        from repro.owl.pipeline import OwlPipeline

        spec = spec_by_name("memcached")
        log = RunLog(runlog_path(str(tmp_path), spec.name))
        OwlPipeline(spec, log=log).run()
        log.close()
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "memcached" in out and "complete" in out

    def test_detect_cli_reports_log_write_errors(self, tmp_path, capsys):
        from repro.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        path = str(blocker / "run.jsonl")  # parent is a file
        assert main(["detect", "libsafe", "--log", path]) == 0
        err = capsys.readouterr().err
        assert "run log %s: 1 write error(s)" % path in err

    def test_status_cli_fails_without_feeds(self, tmp_path):
        from repro.cli import main

        assert main(["status", str(tmp_path)]) == 1


def comparable(attrs):
    """Span attrs as the log carries them (JSON values)."""
    return json.loads(jsonl.encode(attrs))


def tree(spans):
    return [(span.sid, span.parent, span.name, span.track,
             comparable(span.attrs), span.end is not None)
            for span in spans]


#: The identifying attrs of the spans a warm run must keep in order.
UNITS = {"detect_seed": ("seed", "detector"), "wave": ("index", "seeds"),
         "verify_report": ("report",), "verify_vulnerability": ("site",)}


def units(spans):
    """The stage, seed, wave and item spans, in order, by identity."""
    return [(span.name, tuple(span.attrs[key]
                              for key in UNITS.get(span.name, ())))
            for span in spans
            if span.name in UNITS or span.name.startswith("stage:")]


EXPLORE_PREDICT = PipelineConfig(explore=ExplorePolicy(
    max_seeds=6, wave_size=2, predict=PredictPolicy()))


@pytest.fixture(scope="module")
def memcached_logs(tmp_path_factory):
    """``{name: (result, log path)}`` of logged memcached runs: serial,
    pooled, cold and warm cache, and explore+predict cold and warm."""
    from repro.apps.registry import spec_by_name
    from repro.owl.cache import ResultCache
    from repro.owl.pipeline import OwlPipeline

    root = tmp_path_factory.mktemp("stream")
    runs = {}
    for name, config, cache_dir in (
            ("serial", PipelineConfig(), None),
            ("jobs2", PipelineConfig(jobs=2), None),
            ("cold", PipelineConfig(), "cache"),
            ("warm", PipelineConfig(), "cache"),
            ("explore_cold", EXPLORE_PREDICT, "explore"),
            ("explore_warm", EXPLORE_PREDICT, "explore")):
        path = str(root / ("%s.jsonl" % name))
        log = RunLog(path)
        cache = ResultCache(str(root / cache_dir)) if cache_dir else None
        result = OwlPipeline(spec_by_name("memcached"), config, cache=cache,
                             log=log).run()
        log.close()
        runs[name] = (result, path)
    return runs


class TestOneStream:
    """The run log holds the run's span tree: every view rebuilt from it
    equals what the run recorded in memory."""

    @pytest.mark.parametrize("name", ["serial", "jobs2", "cold", "warm",
                                      "explore_cold", "explore_warm"])
    def test_tree_rebuilt_from_the_log_is_the_run_s(self, memcached_logs,
                                                    name):
        result, path = memcached_logs[name]
        rebuilt = load_run(path).tracer()
        assert tree(rebuilt.spans) == tree(result.spans.spans)
        assert rebuilt.structure() == result.spans.structure()

    @pytest.mark.parametrize("name", ["serial", "jobs2", "cold", "warm",
                                      "explore_cold", "explore_warm"])
    def test_stage_rows_read_back_equal_the_metrics(self, memcached_logs,
                                                    name):
        result, path = memcached_logs[name]
        timings = ("wall_seconds", "steps_per_second", "items_per_second")
        logged_rows = [dict(span.attrs, name=span.name[len("stage:"):])
                       for span in load_run(path).tracer().spans
                       if span.name.startswith("stage:")]
        assert logged_rows == [
            {key: value for key, value in stage.as_dict().items()
             if key not in timings}
            for stage in result.metrics.stages]

    @pytest.mark.parametrize("name", ["jobs2", "explore_warm"])
    def test_chrome_trace_from_the_log_is_the_run_s(self, memcached_logs,
                                                    name):
        result, path = memcached_logs[name]

        def by_track(tracer):
            tracks = {}
            for event in tracer.chrome_trace()["traceEvents"]:
                tracks.setdefault(event["tid"], []).append(
                    (event["ph"], event["name"], event.get("args")))
            return tracks

        rebuilt = by_track(load_run(path).tracer())
        assert rebuilt == by_track(result.spans)
        for events in rebuilt.values():
            stack = []
            for phase, name, _ in events:
                if phase == "B":
                    stack.append(name)
                else:
                    assert stack.pop() == name
            assert not stack

    @pytest.mark.parametrize("cold, warm", [("cold", "warm"),
                                            ("explore_cold", "explore_warm")])
    def test_warm_log_has_the_cold_log_s_units(self, memcached_logs, cold,
                                               warm):
        cold_spans = load_run(memcached_logs[cold][1]).tracer()
        warm_spans = load_run(memcached_logs[warm][1]).tracer()
        assert units(warm_spans.spans) == units(cold_spans.spans)
        items = [span for span in warm_spans.spans
                 if span.name in UNITS and span.name != "wave"]
        assert items
        for span in items:  # each cached item is one marker span
            assert span.attrs["cached"] is True
            assert not warm_spans.children_of(span)
        assert not any(span.attrs.get("cached")
                       for span in cold_spans.spans)

    def test_warm_predict_wave_records_its_seed_marker(self,
                                                       memcached_logs):
        """The predict wave's cache hit is a seed like any other: it
        keeps its ``detect_seed`` span, as a ``cached=True`` marker."""
        cold, _ = memcached_logs["explore_cold"]
        warm, _ = memcached_logs["explore_warm"]
        cold_seeds = cold.spans.find("detect_seed")
        warm_seeds = warm.spans.find("detect_seed")
        assert len(cold_seeds) == len(warm_seeds) == sum(
            stage.extra.get("seeds_executed", 0)
            for stage in cold.metrics.stages) == 5
        first = warm_seeds[0]
        assert first.attrs == dict(cold_seeds[0].attrs, cached=True)
        assert warm.explore.waves[0].scheduler == "predict"
