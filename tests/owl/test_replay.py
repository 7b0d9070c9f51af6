"""Tests for first-class replay through the pipeline (repro.owl.replay).

The contract under test: a recorded sweep replayed with the detector
attached yields exactly the reports, counters and provenance dispositions
of the live run it recorded — and any drift is counted loudly, never
absorbed.
"""

import os

from repro.apps.registry import spec_by_name
from repro.owl.cache import ResultCache
from repro.owl.integration import run_detector, spec_job
from repro.owl.pipeline import OwlPipeline
from repro.owl.replay import (
    ReplaySource,
    default_record_dir,
    discover_seeds,
    load_recorded_logs,
    log_path,
    record_program,
)
from repro.owl.sweep import Sweep, run_sweep
from repro.runtime.diffcheck import compare_fingerprints

from tests.owl.test_batch import _fingerprints


def _record_sweep(spec, cache, seeds, record=False):
    """The spec's detector over ``range(seeds)`` through ``cache``."""
    job = spec_job(spec).replace(source=spec.module_factory, record=record)
    return run_sweep(spec.build(), job, range(seeds), sweep=Sweep(cache=cache))


class TestRecordProgram:
    def test_records_one_log_per_seed(self):
        spec = spec_by_name("libsafe")
        source = record_program(spec, seeds=range(4))
        assert [log.seed for log in source.logs] == [0, 1, 2, 3]
        assert all(log.decisions > 0 for log in source.logs)
        assert all(log.program == "libsafe" for log in source.logs)
        assert len(source.record_stats) == 4

    def test_saves_and_reloads_logs(self, tmp_path):
        spec = spec_by_name("libsafe")
        out_dir = str(tmp_path / "records")
        source = record_program(spec, seeds=range(3), out_dir=out_dir)
        assert discover_seeds(out_dir, "libsafe") == [0, 1, 2]
        loaded = load_recorded_logs(spec, record_dir=out_dir,
                                    seeds=range(3))
        for original, clone in zip(source.logs, loaded.logs):
            assert clone.to_payload() == original.to_payload()

    def test_missing_log_names_the_record_verb(self, tmp_path):
        spec = spec_by_name("libsafe")
        try:
            load_recorded_logs(spec, record_dir=str(tmp_path),
                               seeds=range(1))
        except FileNotFoundError as exc:
            assert "owl record" in str(exc)
        else:
            raise AssertionError("expected FileNotFoundError")

    def test_fingerprints_compare_clean(self):
        spec = spec_by_name("libsafe")
        source = record_program(spec, seeds=range(2), fingerprint=True)
        assert len(source.fingerprints) == 2
        assert all(fp.mode == "recorded" for fp in source.fingerprints)


class TestReplaySource:
    def test_replayed_reports_match_live_run(self):
        spec = spec_by_name("libsafe")
        live_reports, _ = run_detector(spec)
        source = record_program(spec)
        replayed_reports, stats = source.run_detector()
        assert _fingerprints(replayed_reports) == _fingerprints(live_reports)
        assert [stat.seed for stat in stats] == list(spec.detect_seeds)
        assert source.replays == len(source.logs)
        assert source.total_divergences == 0
        assert source.unfaithful_replays == 0

    def test_replayed_ski_reports_match_live_run(self):
        spec = spec_by_name("linux")
        live_reports, _ = run_detector(spec)
        source = record_program(spec)
        replayed_reports, _ = source.run_detector()
        assert _fingerprints(replayed_reports) == _fingerprints(live_reports)
        assert source.total_divergences == 0

    def test_metrics_block_accumulates(self):
        spec = spec_by_name("libsafe")
        source = record_program(spec, seeds=range(2))
        source.run_detector()
        source.run_detector()
        block = source.metrics_block()
        assert block["logs"] == 2
        assert block["replays"] == 4
        assert block["decisions"] == sum(
            log.decisions for log in source.logs)
        assert block["unfaithful_replays"] == 0


class TestPipelineReplay:
    def test_pipeline_counters_and_dispositions_match_live(self):
        spec = spec_by_name("memcached")
        live = OwlPipeline(spec).run()
        source = record_program(spec)
        replayed = OwlPipeline(spec, replay=source).run()
        assert replayed.counters.parity_dict() == live.counters.parity_dict()
        live_dispositions = {
            record.uid: record.disposition
            for record in live.provenance}
        replay_dispositions = {
            record.uid: record.disposition
            for record in replayed.provenance}
        assert replay_dispositions == live_dispositions
        block = replayed.metrics.as_dict()["replay"]
        # the annotated re-run replays the sweep a second time — but only
        # when the program has adhoc syncs to annotate
        sweeps = 2 if replayed.counters.adhoc_syncs else 1
        assert block["replays"] == sweeps * len(source.logs)
        assert block["schedule_divergences"] == 0
        assert block["sync_divergences"] == 0
        assert block["thread_divergences"] == 0
        assert block["unfaithful_replays"] == 0

    def test_replay_and_explore_are_mutually_exclusive(self):
        import pytest

        from repro.owl.explore import ExplorePolicy

        spec = spec_by_name("libsafe")
        source = record_program(spec, seeds=range(1))
        with pytest.raises(ValueError, match="explore"):
            OwlPipeline(spec, explore=ExplorePolicy(), replay=source)

    def test_no_replay_block_without_replay(self):
        result = OwlPipeline(spec_by_name("libsafe")).run()
        assert "replay" not in result.metrics.as_dict()


class TestRecordModeCaching:
    def test_record_mode_returns_logs_and_warms_both_stages(self, tmp_path):
        spec = spec_by_name("libsafe")
        cache = ResultCache(str(tmp_path / "cache"))
        reports, runs = _record_sweep(spec, cache, 4, record=True)
        logs = [run.log for run in runs]
        assert [log.seed for log in logs] == [0, 1, 2, 3]
        assert cache.stage_counters("detect")["stores"] == 4
        assert cache.stage_counters("record")["stores"] == 4

        # a warm re-run answers every seed from the cache, logs included
        cache2 = ResultCache(str(tmp_path / "cache"))
        reports2, runs = _record_sweep(spec, cache2, 4, record=True)
        logs2 = [run.log for run in runs]
        assert cache2.stage_counters("detect")["misses"] == 0
        assert cache2.stage_counters("record")["misses"] == 0
        assert [log.to_payload() for log in logs2] == \
            [log.to_payload() for log in logs]
        assert _fingerprints(reports2) == _fingerprints(reports)

    def test_missing_log_entry_forces_live_rerun(self, tmp_path):
        """Warm detect entry + cold record entry must still yield a log."""
        spec = spec_by_name("libsafe")
        root = str(tmp_path / "cache")
        cache = ResultCache(root)
        _record_sweep(spec, cache, 2, record=True)
        # drop the record stage entirely; detect entries stay warm
        import shutil
        shutil.rmtree(os.path.join(root, "record"))
        cache2 = ResultCache(root)
        _, runs = _record_sweep(spec, cache2, 2, record=True)
        logs = [run.log for run in runs]
        assert [log.seed for log in logs] == [0, 1]
        assert cache2.stage_counters("record")["stores"] == 2

    def test_detect_entries_identical_with_and_without_record(self, tmp_path):
        """Recording must not perturb the detect stage's cache content."""
        spec = spec_by_name("libsafe")
        plain_root = str(tmp_path / "plain")
        record_root = str(tmp_path / "record")
        _record_sweep(spec, ResultCache(plain_root), 2)
        _record_sweep(spec, ResultCache(record_root), 2, record=True)

        def entries(root, stage):
            import json

            found = {}
            stage_dir = os.path.join(root, stage)
            for directory, _, names in os.walk(stage_dir):
                for name in names:
                    with open(os.path.join(directory, name)) as handle:
                        found[name] = json.load(handle)
            return found

        assert entries(plain_root, "detect") == entries(record_root, "detect")

    def test_log_entries_smaller_than_detect_entries(self, tmp_path):
        spec = spec_by_name("memcached")
        root = str(tmp_path / "cache")
        _record_sweep(spec, ResultCache(root), 2, record=True)

        def sizes(stage):
            stage_dir = os.path.join(root, stage)
            return sorted(
                os.path.getsize(os.path.join(directory, name))
                for directory, _, names in os.walk(stage_dir)
                for name in names)

        record_sizes, detect_sizes = sizes("record"), sizes("detect")
        assert len(record_sizes) == len(detect_sizes) == 2
        assert max(record_sizes) < min(detect_sizes)


class TestReplayCli:
    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "records")
        assert main(["record", "libsafe", "--seeds", "2",
                     "--out", out_dir]) == 0
        recorded = capsys.readouterr().out
        assert "recorded 2 logs" in recorded
        assert main(["replay", "libsafe", "--record-dir", out_dir,
                     "--check-fingerprint"]) == 0
        replayed = capsys.readouterr().out
        assert "divergences: 0" in replayed
        assert "2/2 seeds bit-identical" in replayed

    def test_replay_without_logs_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", "libsafe",
                     "--record-dir", str(tmp_path / "empty")]) == 1
        assert "owl record" in capsys.readouterr().err

    def test_explain_replay_matches_live_dispositions(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        assert main(["explain", "libsafe"]) == 0
        live = capsys.readouterr().out
        record_dir = str(tmp_path / "records")
        # first run records on the fly, second replays the saved logs
        assert main(["explain", "libsafe", "--replay",
                     "--record-dir", record_dir]) == 0
        replayed_fresh = capsys.readouterr().out
        assert main(["explain", "libsafe", "--replay",
                     "--record-dir", record_dir]) == 0
        replayed_again = capsys.readouterr().out
        assert replayed_fresh == live
        assert replayed_again == live
        assert discover_seeds(record_dir, "libsafe") == \
            list(spec_by_name("libsafe").detect_seeds)


class TestDefaultPaths:
    def test_default_record_dir_and_log_path(self):
        directory = default_record_dir("apache")
        assert directory.endswith(os.path.join("records", "apache"))
        assert log_path(directory, "apache", 7).endswith(
            "apache_seed0007.jsonl")

    def test_discover_seeds_ignores_foreign_files(self, tmp_path):
        directory = str(tmp_path)
        for name in ("apache_seed0001.jsonl", "apache_seed0010.jsonl",
                     "other_seed0002.jsonl", "apache_seedxx.jsonl",
                     "notes.txt"):
            with open(os.path.join(directory, name), "w") as handle:
                handle.write("{}\n")
        assert discover_seeds(directory, "apache") == [1, 10]
        assert discover_seeds(str(tmp_path / "absent"), "apache") == []
