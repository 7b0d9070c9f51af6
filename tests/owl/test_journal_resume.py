"""Tests for finishing an interrupted run from its run log
(``owl resume``, repro.owl.runlog).

The contract under test: an interrupted ``--cache`` run leaves a run log
without ``run_end`` (possibly with a torn last line); resuming re-runs the
pipeline against the same cache, so completed work is a warm hit and the
finished run's counters and provenance are bit-identical to an
uninterrupted run — however many times the run was interrupted.
"""

import glob
import json
import os
from pathlib import Path

import pytest

from repro import jsonl
from repro.apps.registry import spec_by_name
from repro.detectors.predict import PredictPolicy
from repro.owl.cache import ResultCache
from repro.owl.explore import ExplorePolicy
from repro.owl.pipeline import OwlPipeline, PipelineConfig
from repro.owl.runlog import (
    RUNLOG_SCHEMA,
    CannotResume,
    RunLog,
    load_run,
    resume,
    runlog_path,
)


def completed_run(tmp_path, export_path=None, metrics_path=None):
    """A full cached+logged libsafe run; returns (result, path, cache_dir)."""
    spec = spec_by_name("libsafe")
    cache_dir = str(tmp_path / "cache")
    path = runlog_path(cache_dir, spec.name)
    log = RunLog(path, export_path=export_path, metrics_path=metrics_path)
    result = OwlPipeline(spec, cache=ResultCache(cache_dir), log=log).run()
    log.close()
    return result, path, cache_dir


def interrupt(path, cache_dir, drop_lines=3, torn=True, delete_entries=2):
    """Rewind a finished run log to look like a crashed run."""
    lines = Path(path).read_text().splitlines()
    assert json.loads(lines[-1])["event"] == "run_end"
    text = "\n".join(lines[:-drop_lines]) + "\n"
    if torn:
        text += '{"event": "item_done", "stage": "race_ver'  # torn mid-write
    with open(path, "w") as handle:
        handle.write(text)
    victims = sorted(glob.glob(
        os.path.join(cache_dir, "race_verify", "*", "*.json")))
    for victim in victims[:delete_entries]:
        os.unlink(victim)
    return len(victims[:delete_entries])


def damage_line(path, index=2):
    lines = Path(path).read_text().splitlines()
    lines[index] = '{"event": "seed_done", "stage": "det'
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class TestJournalFile:
    def test_records_every_item_and_the_end(self, tmp_path):
        result, path, _ = completed_run(tmp_path)
        state = load_run(path)
        assert state.begun and state.completed
        assert state.program == "libsafe"
        assert state.seeds >= len(result.spec.detect_seeds)
        assert state.items == len(result.verifications) + len(result.attacks)

    def test_begin_truncates_a_previous_journal(self, tmp_path):
        _, path, cache_dir = completed_run(tmp_path)
        log = RunLog(path)
        log.emit("run_begin", program="libsafe", jobs=1, cache_dir=cache_dir)
        log.close()
        state = load_run(path)
        assert state.begun and not state.completed and not state.seeds

    def test_unsupported_schema_is_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "event": "run_begin", "schema": RUNLOG_SCHEMA + 1,
                "program": "libsafe",
            }) + "\n")
        with pytest.raises(ValueError, match="unsupported schema"):
            load_run(path)

    def test_torn_last_line_is_tolerated(self, tmp_path):
        _, path, cache_dir = completed_run(tmp_path)
        interrupt(path, cache_dir, delete_entries=0)
        state = load_run(path)
        assert state.begun and not state.completed
        assert state.seeds  # everything before the torn line parsed
        assert state.torn == 1
        assert "torn=1" in state.summary()

    def test_torn_last_line_is_tolerated_even_when_strict(self, tmp_path):
        """Resume reads strictly, yet a torn tail is the normal trace of a
        crash: the resumed run truncates it and counts it in its
        ``run_begin`` instead of fusing its own first line with it."""
        _, path, cache_dir = completed_run(tmp_path)
        interrupt(path, cache_dir, delete_entries=0)
        result, _ = resume(path)
        assert result is not None
        events, torn = jsonl.read(path)
        assert torn == 0
        begins = [e for e in events if e["event"] == "run_begin"]
        assert [(b["resumed"], b["torn"]) for b in begins] == [
            (False, 0), (True, 1)]
        assert load_run(path).torn == 1

    def test_clean_journal_reports_no_skipped_lines(self, tmp_path):
        _, path, _ = completed_run(tmp_path)
        state = load_run(path)
        assert state.torn == 0
        assert "torn" not in state.summary()

    def test_mid_file_corruption_raises_when_strict(self, tmp_path):
        _, path, _ = completed_run(tmp_path)
        damage_line(path)
        with pytest.raises(ValueError, match="corrupt record on line 3") as \
                excinfo:
            load_run(path)
        assert path in str(excinfo.value)


class TestResume:
    def test_resume_finishes_a_half_journaled_run(self, tmp_path):
        baseline = OwlPipeline(spec_by_name("libsafe")).run()
        export = str(tmp_path / "out.json")
        metrics = str(tmp_path / "metrics.json")
        _, path, cache_dir = completed_run(
            tmp_path, export_path=export, metrics_path=metrics)
        assert not os.path.exists(export)  # the run itself never wrote it
        deleted = interrupt(path, cache_dir)
        assert deleted > 0

        result, state = resume(path)
        assert result is not None and not state.completed
        assert result.counters.parity_dict() == baseline.counters.parity_dict()
        assert result.provenance.as_dict() == baseline.provenance.as_dict()
        # only the interrupted tail re-executed
        assert result.metrics.blocks["cache"]["misses"] == deleted
        assert result.metrics.blocks["cache"]["hits"] > 0
        # the logged outputs were (re)written
        assert os.path.exists(export) and os.path.exists(metrics)
        finished = load_run(path)
        assert finished.completed and finished.resumes == 1

    def test_resume_after_two_interrupts(self, tmp_path):
        """Interrupt, resume, interrupt the resumed run the same way,
        resume again: still the uninterrupted run's results."""
        baseline = OwlPipeline(spec_by_name("libsafe")).run()
        _, path, cache_dir = completed_run(tmp_path)
        interrupt(path, cache_dir)
        first, _ = resume(path)
        assert first is not None
        deleted = interrupt(path, cache_dir)

        result, state = resume(path)
        assert result is not None and state.resumes == 1
        assert result.counters.parity_dict() == baseline.counters.parity_dict()
        assert result.provenance.as_dict() == baseline.provenance.as_dict()
        assert result.metrics.blocks["cache"]["misses"] == deleted
        finished = load_run(path)
        assert finished.completed and finished.resumes == 2
        assert finished.torn == 2
        assert resume(path)[0] is None

    def test_resume_of_a_completed_run_is_a_noop(self, tmp_path):
        _, path, _ = completed_run(tmp_path)
        before = Path(path).read_text()
        result, state = resume(path)
        assert result is None and state.completed
        assert Path(path).read_text() == before

    def test_resume_refuses_mid_file_corruption(self, tmp_path):
        """Resume is strict: a damaged line that is *not* the torn tail
        means the log was damaged after the fact — refuse instead of
        resuming from a log missing interior events."""
        _, path, cache_dir = completed_run(tmp_path)
        interrupt(path, cache_dir, delete_entries=0)
        damage_line(path)
        with pytest.raises(ValueError, match="corrupt record on line 3"):
            resume(path)

    def test_resume_without_begin_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event": "seed_done", "stage": "detect"}\n')
        with pytest.raises(ValueError, match="no run_begin"):
            resume(path)


def cut_after_stage_end(path, stage):
    """Drop the log's lines after ``stage``'s ``stage_end``, as a crash
    there would leave it; returns the log's bytes after the cut."""
    lines = Path(path).read_text().splitlines(keepends=True)
    cut = next(index for index, line in enumerate(lines)
               if json.loads(line)["event"] == "stage_end"
               and json.loads(line)["stage"] == stage)
    Path(path).write_text("".join(lines[:cut + 1]))
    return Path(path).read_bytes()


def last_segment(path):
    """The events of the log's latest ``run_begin`` onwards."""
    events = read_events(path)
    begins = [index for index, event in enumerate(events)
              if event["event"] == "run_begin"]
    return events[begins[-1]:]


def read_events(path):
    return jsonl.read(path)[0]


def stage_ends(events):
    return {event["stage"]: event for event in events
            if event["event"] == "stage_end"}


def comparable_telemetry(telemetry):
    """The telemetry block minus what depends on which items were cache
    hits: the ``cache.*`` counters, and the span count (a cached item
    adopts one marker span in place of its worker's spans)."""
    return dict(
        telemetry,
        counters={name: value
                  for name, value in telemetry["counters"].items()
                  if not name.startswith("cache.")},
        gauges={name: value for name, value in telemetry["gauges"].items()
                if name != "spans.records"},
    )


def assert_same_run(resumed, whole):
    """Two metrics documents describe the same run."""
    for block in ("explore", "predict", "batch"):
        assert resumed.get(block) == whole.get(block), block
    assert comparable_telemetry(resumed["telemetry"]) == \
        comparable_telemetry(whole["telemetry"])


class TestResumeRefusal:
    """A run the log cannot rebuild is refused, never silently re-run as
    a different pipeline."""

    def test_fix_run_is_refused_untouched(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        metrics = str(tmp_path / "metrics.json")
        assert main(["fix", "apache_log", "--cache", "--cache-dir",
                     cache_dir, "--metrics", metrics]) == 0
        path = runlog_path(cache_dir, "apache_log")
        log_before = cut_after_stage_end(path, "race_verification")
        metrics_before = Path(metrics).read_bytes()
        assert "repair" in json.loads(metrics_before)
        capsys.readouterr()

        assert main(["resume", "apache_log", "--cache-dir", cache_dir]) == 1
        error = capsys.readouterr().err
        assert "`owl fix`" in error
        assert "Traceback" not in error
        with pytest.raises(CannotResume, match="owl fix"):
            resume(path)
        assert Path(path).read_bytes() == log_before
        assert Path(metrics).read_bytes() == metrics_before

    def test_replay_run_is_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        Path(path).write_text(json.dumps({
            "event": "run_begin", "schema": RUNLOG_SCHEMA,
            "program": "libsafe", "jobs": 1, "replay": True,
        }) + "\n")
        before = Path(path).read_bytes()
        with pytest.raises(CannotResume, match="--replay"):
            resume(path)
        assert Path(path).read_bytes() == before

    def test_log_without_config_is_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        Path(path).write_text(json.dumps({
            "event": "run_begin", "schema": RUNLOG_SCHEMA,
            "program": "libsafe", "jobs": 1, "explore": False,
            "cache": False, "replay": False,
        }) + "\n")
        before = Path(path).read_bytes()
        with pytest.raises(CannotResume, match="no pipeline config"):
            resume(path)
        assert Path(path).read_bytes() == before


class Interrupted(Exception):
    pass


#: The stage method that runs after each cut: crashing it leaves the log
#: ending at the cut stage's ``stage_end``.
CUTS = {
    "detect": "_stage_schedule_reduction",
    "schedule_reduction": "_stage_race_verification",
    "race_verification": "_stage_vulnerability_analysis",
    "vulnerability_analysis": "_stage_vulnerability_verification",
}

CONFIGS = {
    "explore_predict": PipelineConfig(explore=ExplorePolicy(
        max_seeds=6, wave_size=2, predict=PredictPolicy())),
    "profiled": PipelineConfig(profile=97, retries=0, item_timeout=30),
}


def logged_run(directory, config, crash=None):
    """A cold cached, logged memcached run under ``config``; ``crash``
    names a stage method that raises instead of running.  Returns the
    result (None when interrupted) and the log and metrics paths."""
    cache_dir = str(directory / "cache")
    path = runlog_path(cache_dir, "memcached")
    metrics = str(directory / "metrics.json")
    log = RunLog(path, metrics_path=metrics)
    pipeline = OwlPipeline(spec_by_name("memcached"), config,
                           cache=ResultCache(cache_dir), log=log)
    if crash is not None:
        def interrupt(result):
            raise Interrupted(crash)

        setattr(pipeline, crash, interrupt)
    try:
        result = pipeline.run()
        result.metrics.save(metrics)
    except Interrupted:
        result = None
    log.close()
    return result, path, metrics


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    return {name: logged_run(tmp_path_factory.mktemp(name), config)
            for name, config in CONFIGS.items()}


class TestResumeEquivalence:
    """A resumed run is the run it resumes: interrupted after any stage,
    it finishes with the uninterrupted run's results, metrics and stage
    events, and every stage finished before the cut is a cache hit."""

    @pytest.mark.parametrize("cut", list(CUTS))
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_resume_after_each_stage_is_the_same_run(
            self, tmp_path, uninterrupted, name, cut):
        whole, whole_path, whole_metrics = uninterrupted[name]
        interrupted, path, metrics = logged_run(tmp_path, CONFIGS[name],
                                                crash=CUTS[cut])
        assert interrupted is None and not load_run(path).completed
        assert list(stage_ends(read_events(path)))[-1] == cut

        result, _ = resume(path)
        assert result.counters.parity_dict() == \
            whole.counters.parity_dict()
        assert result.provenance.as_dict() == whole.provenance.as_dict()
        with open(metrics) as handle, open(whole_metrics) as whole_handle:
            assert_same_run(json.load(handle), json.load(whole_handle))
        segment = stage_ends(last_segment(path))
        expected = stage_ends(read_events(whole_path))
        assert list(segment) == list(expected)
        for stage, event in segment.items():
            assert (event["items"], event["runs"]) == (
                expected[stage]["items"], expected[stage]["runs"]), stage
        for stage in list(CUTS)[:list(CUTS).index(cut) + 1]:
            assert segment[stage]["cache_misses"] == 0, stage

    def test_explore_predict_cli_run_resumes_as_the_same_run(
            self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        metrics = str(tmp_path / "metrics.json")
        assert main(["detect", "memcached", "--explore", "--predict",
                     "--wave-size", "2", "--max-seeds", "6", "--cache",
                     "--cache-dir", cache_dir, "--metrics", metrics]) == 0
        whole = json.loads(Path(metrics).read_text())
        assert {"explore", "predict"} <= set(whole)
        path = runlog_path(cache_dir, "memcached")
        cut_after_stage_end(path, "detect")
        capsys.readouterr()

        assert main(["resume", "memcached", "--cache-dir", cache_dir]) == 0
        assert "resumed run finished" in capsys.readouterr().out
        assert_same_run(json.loads(Path(metrics).read_text()), whole)
        assert stage_ends(last_segment(path))["detect"]["cache_misses"] == 0


#: A non-default value for every config field (and every nested policy
#: setting): a field added without one fails the coverage test below.
NON_DEFAULT = {
    "jobs": 3,
    "explore": ExplorePolicy(
        max_seeds=7, wave_size=3, saturation_k=4, escalate=False,
        ladder=(("pct", 9), ("pct", 11)),
        predict=PredictPolicy(optimistic=True, witness=False,
                              max_pairs_per_static=2, max_closures=99)),
    "profile": 13,
    "item_timeout": 2.5,
    "retries": 0,
}


class TestLoggedConfig:
    def test_every_setting_has_a_non_default_value(self):
        for cls, value in ((PipelineConfig, PipelineConfig(**NON_DEFAULT)),
                           (ExplorePolicy, NON_DEFAULT["explore"]),
                           (PredictPolicy, NON_DEFAULT["explore"].predict)):
            for name, default in zip(cls._fields, cls()):
                assert getattr(value, name) != default, (cls.__name__, name)

    def test_config_survives_run_begin_load_run_and_resume(
            self, tmp_path, monkeypatch):
        config = PipelineConfig(**NON_DEFAULT)
        path = str(tmp_path / "run.jsonl")
        log = RunLog(path)
        pipeline = OwlPipeline(spec_by_name("libsafe"), config, log=log)

        def stop(result):
            raise Interrupted("after run_begin")

        pipeline._stage_detect = stop
        with pytest.raises(Interrupted):
            pipeline.run()
        log.close()
        assert PipelineConfig.from_dict(load_run(path).begin["config"]) \
            == config
        rebuilt = []
        monkeypatch.setattr(OwlPipeline, "run",
                            lambda pipeline: rebuilt.append(pipeline.config))
        resume(path)
        assert rebuilt == [config]
