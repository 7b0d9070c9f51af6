#!/usr/bin/env python3
"""Replay-fidelity oracle: recorded logs must replay bit-for-bit.

For every requested program the tool records each seed once as a bare
(detector-free) :class:`repro.runtime.record.ScheduleLog` with a
``"recorded"``-mode execution fingerprint, then *replays* the log with the
spec's race detector attached and compares the ``"replayed"`` fingerprint
field-by-field (events, faults, recorded faults, exit reason/code, step
count — the same oracle ``tools/diff_oracle.py`` uses for the optimized
VM).  Any divergence, unfaithful replay, or fingerprint mismatch fails
the run: a log replayed on the same IR digest is bit-identical or loudly
divergent, never silently wrong.

It also validates the size claim behind caching logs: every per-seed
``record``-stage cache entry must be smaller than the corresponding
``detect``-stage payload it allows us to regenerate.

Usage::

    PYTHONPATH=src python tools/replay_fidelity.py            # all apps, 10 seeds
    PYTHONPATH=src python tools/replay_fidelity.py --programs memcached \\
        apache_log --seeds 10 --metrics-out benchmarks/out \\
        --record-dir benchmarks/out/records

Exit status 0 when every program replays faithfully, 1 otherwise.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.apps.registry import all_specs, spec_by_name
from repro.owl.cache import ResultCache
from repro.owl.integration import spec_job
from repro.owl.sweep import Sweep, run_sweep
from repro.owl.replay import _spec_world, record_program
from repro.runtime.diffcheck import compare_fingerprints
from repro.runtime.metrics import PipelineMetrics, RunStats
from repro.runtime.record import replay_log


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="assert replaying a recorded schedule log reproduces "
                    "the live execution bit-for-bit")
    parser.add_argument(
        "--programs", nargs="*", default=None, metavar="NAME",
        help="spec names to check (default: all registered apps)")
    parser.add_argument(
        "--seeds", type=int, default=10, metavar="N",
        help="seeds per program (default: 10)")
    parser.add_argument(
        "--record-dir", default=None, metavar="DIR",
        help="save the recorded logs under DIR/<program>/ (default: a "
             "temporary directory, deleted afterwards)")
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write metrics_replay_<program>.json (with the "
             "replay block) under DIR")
    parser.add_argument(
        "--skip-size-check", action="store_true",
        help="skip the record-vs-detect cache entry size comparison")
    return parser.parse_args(argv)


def check_fidelity(spec, seeds, record_dir):
    """Record every seed, replay with the detector, compare fingerprints.

    Returns ``(source, mismatches, replay_seconds)`` where ``source`` is
    the :class:`ReplaySource` with its divergence counters filled in and
    ``mismatches`` the list of fingerprint :class:`Divergence` objects.
    """
    from repro.detectors.report import ReportSet
    from repro.detectors.seed import DETECTORS

    detector_cls = DETECTORS[spec.detector]

    out_dir = os.path.join(record_dir, spec.name)
    source = record_program(spec, seeds=seeds, out_dir=out_dir,
                            fingerprint=True)
    module = spec.build()
    mismatches = []
    replay_started = time.perf_counter()
    for log, recorded in zip(source.logs, source.fingerprints):
        detector = detector_cls(annotations=None, reports=ReportSet())
        outcome = replay_log(
            module, log, observers=[detector],
            inputs=spec.workload_inputs, world=_spec_world(spec),
            fingerprint=True,
        )
        source.replays += 1
        source.schedule_divergences += outcome.schedule_divergences
        source.sync_divergences += outcome.sync_divergences
        source.thread_divergences += outcome.thread_divergences
        if not outcome.faithful:
            source.unfaithful_replays += 1
        divergence = compare_fingerprints(recorded, outcome.fingerprint)
        if divergence is not None:
            mismatches.append(divergence)
    return source, mismatches, time.perf_counter() - replay_started


def check_entry_sizes(spec, seeds, cache_root):
    """Per-seed (record entry bytes, detect entry bytes) via the cache.

    Runs the seed sweep once in record mode through the result cache,
    warming both stages, then measures each pair of entries (both are
    keyed by the same :class:`repro.detectors.seed.SeedJob`).
    """
    sweep = Sweep(cache=ResultCache(cache_root))
    module = spec.build()
    job = spec_job(spec).replace(source=spec.module_factory, record=True)
    _, runs = run_sweep(module, job, seeds, sweep=sweep)
    pairs = []
    for run in runs:
        detect_path = sweep.cache._path(
            "detect", sweep.key("detect", module, run.job))
        record_path = sweep.cache._path(
            "record", sweep.key("record", module, run.job))
        pairs.append((os.path.getsize(record_path),
                      os.path.getsize(detect_path)))
    return pairs, sum(1 for run in runs if run.log is not None)


def save_metrics(spec, source, replay_seconds, out_dir):
    metrics = PipelineMetrics(spec.name, jobs=1)
    with metrics.stage("record", unit="seeds") as stage:
        stage.items = len(source.logs)
        stage.absorb_run_stats(source.record_stats)
    with metrics.stage("replay", unit="seeds") as stage:
        stage.items = source.replays
        stage.absorb_run_stats([RunStats(
            seed=log.seed, reason=log.reason, steps=log.steps)
            for log in source.logs])
    metrics.stages[0].wall_seconds = sum(
        stat.wall_seconds for stat in source.record_stats)
    metrics.stages[1].wall_seconds = replay_seconds
    metrics.total_seconds = (
        metrics.stages[0].wall_seconds + metrics.stages[1].wall_seconds)
    metrics.blocks["replay"] = source.metrics_block()
    path = os.path.join(out_dir, "metrics_replay_%s.json" % spec.name)
    return metrics.save(path)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.programs:
        specs = [spec_by_name(name) for name in args.programs]
    else:
        specs = all_specs()
    seeds = list(range(args.seeds))
    record_dir = args.record_dir
    temp_dir = None
    if record_dir is None:
        temp_dir = tempfile.mkdtemp(prefix="owl_replay_fidelity_")
        record_dir = temp_dir
    failures = 0
    try:
        for spec in specs:
            source, mismatches, replay_seconds = check_fidelity(
                spec, seeds, record_dir)
            bad = (len(mismatches) + source.total_divergences
                   + source.unfaithful_replays)
            verdict = "bit-identical" if bad == 0 else "DIVERGED"
            print("%-14s seeds=%d  decisions=%d  schedule/sync/thread "
                  "divergences=%d/%d/%d  fingerprint mismatches=%d  %s" % (
                      spec.name, len(source.logs),
                      sum(log.decisions for log in source.logs),
                      source.schedule_divergences, source.sync_divergences,
                      source.thread_divergences, len(mismatches), verdict))
            for divergence in mismatches:
                print("  " + divergence.describe().replace("\n", "\n  "))
            if bad:
                failures += 1
            if not args.skip_size_check:
                cache_root = os.path.join(record_dir, spec.name, "cache")
                pairs, log_count = check_entry_sizes(spec, seeds, cache_root)
                oversized = [(index, log_bytes, detect_bytes)
                             for index, (log_bytes, detect_bytes)
                             in enumerate(pairs)
                             if log_bytes >= detect_bytes]
                print("  cache entries: record %d-%dB vs detect %d-%dB "
                      "per seed (%d logs)" % (
                          min(size for size, _ in pairs),
                          max(size for size, _ in pairs),
                          min(size for _, size in pairs),
                          max(size for _, size in pairs), log_count))
                for index, log_bytes, detect_bytes in oversized:
                    print("  seed %d: record entry %dB >= detect entry %dB"
                          % (seeds[index], log_bytes, detect_bytes))
                if oversized or log_count != len(seeds):
                    failures += 1
            if args.metrics_out:
                path = save_metrics(
                    spec, source, replay_seconds, args.metrics_out)
                print("  metrics -> %s" % path)
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    if failures:
        print("FAIL: %d program(s) failed replay fidelity" % failures)
        return 1
    print("OK: %d program(s), every replay bit-identical" % len(specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
