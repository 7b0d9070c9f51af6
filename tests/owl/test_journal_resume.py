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
from repro.owl.batch import BatchPolicy
from repro.owl.cache import ResultCache
from repro.owl.pipeline import OwlPipeline
from repro.owl.runlog import (
    RUNLOG_SCHEMA,
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
    result = OwlPipeline(
        spec, cache=ResultCache(cache_dir), policy=BatchPolicy(), log=log,
    ).run()
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
