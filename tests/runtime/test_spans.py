"""Tests for the hierarchical span tracer and its exporters."""

import json

import pytest

from repro import jsonl
from repro.owl.runlog import RunLog
from repro.runtime.spans import SpanTracer, maybe_span


class FakeClock:
    """A deterministic clock: each reading advances by ``step`` seconds."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_tracer():
    return SpanTracer(clock=FakeClock())


class TestSpanRecording:
    def test_nesting_follows_context_stack(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert inner.parent == outer.sid
        assert outer.parent is None

    def test_structure_renders_the_tree(self):
        tracer = make_tracer()
        with tracer.span("pipeline"):
            with tracer.span("stage:detect"):
                tracer.instant("detect_seed")
                tracer.instant("detect_seed")
            with tracer.span("stage:verify"):
                tracer.instant("verify_report")
        assert tracer.structure() == [
            ("pipeline", [
                ("stage:detect", [("detect_seed", []), ("detect_seed", [])]),
                ("stage:verify", [("verify_report", [])]),
            ]),
        ]

    def test_instant_spans_have_zero_duration(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            marker = tracer.instant("livelock_release", release=1)
        assert marker.duration == 0.0
        assert marker.attrs == {"release": 1}

    def test_finish_records_attrs_and_duration(self):
        tracer = make_tracer()
        span = tracer.begin("work", seed=3)
        tracer.finish(span, reports=2)
        assert span.attrs == {"seed": 3, "reports": 2}
        assert span.duration > 0

    def test_slowest_orders_by_duration_and_excludes(self):
        tracer = make_tracer()
        clock = tracer._clock
        quick = tracer.begin("quick")
        tracer.finish(quick)
        slow = tracer.begin("slow")
        clock.now += 10.0
        tracer.finish(slow)
        root = tracer.begin("pipeline")
        clock.now += 100.0
        tracer.finish(root)
        names = [s.name for s in tracer.slowest(5, exclude=("pipeline",))]
        assert names == ["slow", "quick"]

    def test_maybe_span_without_tracer_is_noop(self):
        with maybe_span(None, "anything", seed=1) as span:
            assert span is None

    def test_maybe_span_with_tracer_records(self):
        tracer = make_tracer()
        with maybe_span(tracer, "work", seed=1) as span:
            assert span is not None
        assert tracer.find("work")


class TestAdopt:
    def payload(self):
        worker = make_tracer()
        with worker.span("detect_seed", seed=7):
            worker.instant("inner")
        return worker.export_payload()

    def test_adopt_remaps_ids_and_reparents(self):
        tracer = make_tracer()
        with tracer.span("stage") as stage:
            adopted = tracer.adopt(self.payload())
        roots = [s for s in adopted if s.parent == stage.sid]
        assert len(roots) == 1
        assert roots[0].name == "detect_seed"
        inner = [s for s in adopted if s.parent == roots[0].sid]
        assert [s.name for s in inner] == ["inner"]

    def test_adopted_groups_get_distinct_tracks(self):
        tracer = make_tracer()
        with tracer.span("stage"):
            first = tracer.adopt(self.payload())
            second = tracer.adopt(self.payload())
        assert first[0].track != second[0].track
        assert all(s.track == first[0].track for s in first)

    def test_adopt_shifts_group_to_parent_start(self):
        tracer = make_tracer()
        with tracer.span("stage") as stage:
            adopted = tracer.adopt(self.payload())
        assert min(s.start for s in adopted) == stage.start

    def test_adopt_preserves_durations(self):
        worker = make_tracer()
        span = worker.begin("detect_seed")
        worker._clock.now += 5.0
        worker.finish(span)
        tracer = make_tracer()
        with tracer.span("stage"):
            adopted = tracer.adopt(worker.export_payload())
        assert adopted[0].duration == pytest.approx(span.duration)

    def test_structure_identical_regardless_of_adopt_grouping(self):
        # One big worker payload vs two smaller ones in the same order
        # must yield the same tree shape.
        def run(split):
            tracer = make_tracer()
            with tracer.span("stage"):
                if split:
                    tracer.adopt(self.payload())
                    tracer.adopt(self.payload())
                else:
                    worker = make_tracer()
                    with worker.span("detect_seed", seed=7):
                        worker.instant("inner")
                    with worker.span("detect_seed", seed=7):
                        worker.instant("inner")
                    tracer.adopt(worker.export_payload())
            return tracer.structure()

        assert run(split=True) == run(split=False)


def traced_pipelineish(log=None):
    tracer = SpanTracer(clock=FakeClock(), log=log)
    with tracer.span("pipeline", program="demo"):
        with tracer.span("stage:detect"):
            for seed in range(3):
                with tracer.span("detect_seed", seed=seed):
                    tracer.instant("livelock_release")
        worker = SpanTracer(clock=FakeClock())
        with worker.span("verify_report"):
            worker.instant("verify_attempt")
        with tracer.span("stage:verify"):
            tracer.adopt(worker.export_payload())
    return tracer


def logged(tmp_path, record):
    """``record(tracer)`` into a run log; ``(tracer, event rows)``."""
    path = str(tmp_path / "run.jsonl")
    log = RunLog(path)
    tracer = record(log)
    log.close()
    return tracer, jsonl.read(path)[0]


def span_rows(rows):
    """The span events without their timings."""
    return [{key: value for key, value in row.items()
             if key not in ("seq", "wall", "ts_us", "track")}
            for row in rows]


class TestJsonlExport:
    """Spans reach JSON lines as the run log's begin/end events."""

    def test_round_trip_is_valid_json(self, tmp_path):
        tracer, rows = logged(tmp_path, traced_pipelineish)
        assert len(rows) == 2 * len(tracer)
        assert [row["event"] for row in rows].count("begin") == len(tracer)
        assert {row["name"] for row in rows} >= {
            "pipeline", "stage:detect", "detect_seed", "verify_report",
        }
        ends = {row["id"]: row["attrs"] for row in rows
                if row["event"] == "end"}
        assert ends == {span.sid: span.attrs for span in tracer.spans}

    def test_parent_links_resolve(self, tmp_path):
        _, rows = logged(tmp_path, traced_pipelineish)
        begins = [row for row in rows if row["event"] == "begin"]
        seen = set()
        for row in begins:  # every parent opened before its child
            assert row["parent"] is None or row["parent"] in seen
            seen.add(row["id"])

    def test_durations_non_negative(self, tmp_path):
        tracer, rows = logged(tmp_path, traced_pipelineish)
        opened = {row["id"]: row["ts_us"] for row in rows
                  if row["event"] == "begin"}
        for row in rows:
            if row["event"] == "end":
                assert row["ts_us"] >= opened[row["id"]]
        assert all(span.duration >= 0 for span in tracer.spans)

    def test_adopted_group_logs_in_serial_nesting_order(self, tmp_path):
        """A worker's spans adopted in one group write the events a
        serial run of the same spans writes."""
        def work(tracer):
            with tracer.span("verify_report", report="r1-2") as report:
                with tracer.span("verify_attempt", seed=0):
                    tracer.instant("livelock_release", release=1)
                with tracer.span("verify_attempt", seed=1):
                    pass
                report.attrs["verified"] = True

        def serial(log):
            tracer = SpanTracer(clock=FakeClock(), log=log)
            with tracer.span("stage:verify"):
                work(tracer)
            return tracer

        def adopted(log):
            worker = SpanTracer(clock=FakeClock())
            work(worker)
            tracer = SpanTracer(clock=FakeClock(), log=log)
            with tracer.span("stage:verify"):
                tracer.adopt(worker.export_payload())
            return tracer

        assert span_rows(logged(tmp_path, adopted)[1]) == \
            span_rows(logged(tmp_path, serial)[1])

    def test_a_body_that_raises_writes_no_end(self, tmp_path):
        def record(log):
            tracer = SpanTracer(clock=FakeClock(), log=log)
            with tracer.span("pipeline"):
                with pytest.raises(RuntimeError):
                    with tracer.span("stage:detect"):
                        raise RuntimeError("crash")
                assert tracer.current.name == "pipeline"
            return tracer

        tracer, rows = logged(tmp_path, record)
        assert [(row["event"], row["name"]) for row in rows] == [
            ("begin", "pipeline"), ("begin", "stage:detect"),
            ("end", "pipeline")]
        assert tracer.find("stage:detect")[0].end is not None

    def test_marker_carries_the_live_attrs_and_cached(self):
        tracer = make_tracer()
        marker = tracer.marker("detect_seed", seed=4, reports=2)
        assert marker.attrs == {"seed": 4, "reports": 2, "cached": True}
        assert tracer.current is None


class TestChromeExport:
    def test_file_is_valid_trace_event_json(self, tmp_path):
        tracer = traced_pipelineish()
        path = tracer.save_chrome(str(tmp_path / "trace.json"))
        with open(path) as handle:
            data = json.load(handle)
        assert isinstance(data["traceEvents"], list)
        for event in data["traceEvents"]:
            assert event["ph"] in ("B", "E")
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "B":
                assert "args" in event

    def test_timestamps_are_monotone(self):
        events = traced_pipelineish().chrome_trace()["traceEvents"]
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)

    def test_b_and_e_events_pair_up_per_track(self):
        events = traced_pipelineish().chrome_trace()["traceEvents"]
        stacks = {}
        for event in events:
            stack = stacks.setdefault((event["pid"], event["tid"]), [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack, "E without a matching B"
                assert stack.pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_args_are_json_safe(self):
        tracer = make_tracer()
        with tracer.span("work", location=object(), values=(1, "x")):
            pass
        events = tracer.chrome_trace()["traceEvents"]
        json.dumps(events)  # must not raise
        begin = next(e for e in events if e["ph"] == "B")
        assert begin["args"]["values"] == [1, "x"]
