"""Tests for the run log as a live stream (repro.owl.runlog) and its
``owl watch``/``owl status`` views."""

import threading
import time

import pytest

from repro import jsonl
from repro.owl.runlog import RunLog, render_event, runlog_path


def read_events(path):
    return jsonl.read(path)[0]


class TestEventFeed:
    def test_events_are_sequenced_json_lines(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="memcached", jobs=2, explore=True)
        log.emit("seed_done", stage="detect", seed=0, steps=1551, reports=16)
        log.emit("run_end", raw_reports=16, remaining=4, attacks=0)
        log.close()
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "run_begin", "seed_done", "run_end"]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[0]["program"] == "memcached"
        assert events[0]["resumed"] is False and events[0]["torn"] == 0
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
        log.emit("seed_done", seed=0)  # must not raise or write
        assert len(read_events(path)) == 1

    def test_read_feed_skips_torn_final_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="demo", jobs=1)
        log.close()
        with open(path, "a") as handle:
            handle.write('{"event": "seed_done", "se')  # writer died here
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
        log.emit("seed_done", seed=0)
        assert log.write_errors == 1


class TestFollowFeed:
    def test_follow_sees_events_written_after_attach(self, tmp_path):
        path = str(tmp_path / "run.jsonl")

        def writer():
            time.sleep(0.05)
            log = RunLog(path)
            log.emit("run_begin", program="demo", jobs=1)
            log.emit("seed_done", seed=0)
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
            "run_begin", "seed_done", "run_end"]

    def test_follow_times_out_on_quiet_feed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        log.emit("run_begin", program="demo", jobs=1)
        log.close()
        events = list(jsonl.follow(path, poll=0.01, timeout=0.1))
        assert [e["event"] for e in events] == ["run_begin"]


class TestRenderEvent:
    def test_known_events_render_one_line(self):
        lines = [
            render_event({"event": "run_begin", "program": "apache",
                          "jobs": 2, "explore": True}),
            render_event({"event": "stage_begin", "stage": "detect"}),
            render_event({"event": "seed_done", "seed": 3,
                          "detector": "tsan", "steps": 900, "reports": 2,
                          "cached": True}),
            render_event({"event": "wave_done", "index": 1,
                          "seeds": [4, 5], "scheduler": "pct", "depth": 3,
                          "new_pairs": 0, "total_pairs": 21, "dry": True}),
            render_event({"event": "run_end", "raw_reports": 16,
                          "remaining": 4, "attacks": 1}),
        ]
        assert all(isinstance(line, str) and line for line in lines)
        assert "apache" in lines[0] and "explore" in lines[0]
        assert "[cached]" in lines[2]
        assert "[dry]" in lines[3]

    def test_unknown_event_renders_nothing(self):
        assert render_event({"event": "mystery"}) is None


class TestPipelineFeed:
    def test_pipeline_streams_begin_stages_seeds_end(self, tmp_path):
        from repro.apps.registry import spec_by_name
        from repro.owl.pipeline import OwlPipeline

        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        OwlPipeline(spec_by_name("memcached"), log=log).run()
        log.close()
        events = read_events(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_begin" and kinds[-1] == "run_end"
        assert kinds.count("stage_begin") == kinds.count("stage_end") == 5
        assert kinds.count("seed_done") > 0
        stage_names = [e["stage"] for e in events
                       if e["event"] == "stage_begin"]
        assert stage_names[0] == "detect"
        # every line is valid JSON with a seq gap-free ordering
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_events_match_across_jobs_and_cache(self, tmp_path):
        """Serial uncached, serial cold-cache and pooled runs log the same
        events once observations and configuration are dropped."""
        from repro.apps.registry import spec_by_name
        from repro.owl.cache import ResultCache
        from repro.owl.pipeline import OwlPipeline

        dropped = {"wall", "pid", "seq", "cached", "cache_hits",
                   "cache_misses"}
        configuration = {"schema", "jobs", "cache_dir", "export_path",
                         "metrics_path", "resumed", "torn", "explore",
                         "cache", "replay"}

        def events(name, **options):
            path = str(tmp_path / ("%s.jsonl" % name))
            log = RunLog(path)
            OwlPipeline(spec_by_name("libsafe"), log=log, **options).run()
            log.close()
            return [{key: value for key, value in event.items()
                     if key not in dropped and not (
                         event["event"] == "run_begin"
                         and key in configuration)}
                    for event in read_events(path)]

        serial = events("serial")
        assert sum(e["event"] == "item_done" for e in serial) == 6
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
        assert [(e["event"], e["stage"]) for e in read_events(path)
                if e["event"].startswith("stage_")] == [
            ("stage_begin", "detect"), ("stage_end", "detect"),
            ("stage_begin", "schedule_reduction"),
            ("stage_end", "schedule_reduction"),
            ("stage_begin", "race_verification"),
        ]

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
