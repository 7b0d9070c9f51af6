#!/usr/bin/env python3
"""Differential-execution oracle: reference vs optimized VM, bit-for-bit.

Runs every requested program twice per seed — once with every interpreter
hot-path optimization disabled (``reference``) and once as shipped — and
asserts the two executions are observably identical: same trace-event
stream (thread/step/address/size/value/call stack/variable), same fault
lists, same race-report sets and, with ``--counters``, same
``StageCounters.parity_dict()`` from a full pipeline run.  While doing so
it measures reference vs optimized interpreter throughput and writes the
comparison into the ``diff_oracle`` metrics block.

With ``--fuse`` a third, fused execution (superinstructions on — see
:mod:`repro.runtime.fuse`) joins every sweep and must be bit-identical to
the optimized one; the record/replay backbone is additionally checked to
be byte-identical with the flag on and off.  ``--fuse-bench`` measures
the fused-vs-optimized steps/s ratio under a round-robin scheduler (where
``run_length`` has real no-preempt windows — the oracle's RandomScheduler
preempts geometrically, so its ``fused_speedup`` proves parity, not
performance) and ``--fuse-floor`` turns that into a gate.

Usage::

    PYTHONPATH=src python tools/diff_oracle.py                # all apps, 10 seeds
    PYTHONPATH=src python tools/diff_oracle.py --programs memcached apache_log \\
        --seeds 10 --counters --fuse --metrics-out benchmarks/out
    PYTHONPATH=src python tools/diff_oracle.py --programs memcached \\
        --fuse-bench --fuse-floor 1.3

Exit status 0 when every program is divergence-free, 1 otherwise (the
first divergence per program is printed with both sides of the mismatch).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.apps.registry import all_specs, spec_by_name
from repro.runtime.diffcheck import (
    benchmark_fused,
    diff_counters,
    diff_program,
    diff_record_replay,
    diff_reports,
)
from repro.runtime.metrics import PipelineMetrics, RunStats


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="assert optimized VM execution is bit-identical to the "
                    "reference implementation, and measure the speedup")
    parser.add_argument(
        "--programs", nargs="*", default=None, metavar="NAME",
        help="spec names to check (default: all registered apps)")
    parser.add_argument(
        "--seeds", type=int, default=10, metavar="N",
        help="seeds per program for the event-stream sweep (default: 10)")
    parser.add_argument(
        "--counters", action="store_true",
        help="also run the full pipeline per mode and compare "
             "StageCounters.parity_dict() (slower)")
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write metrics_diffcheck_<program>.json (with the "
             "diff_oracle block) under DIR")
    parser.add_argument(
        "--stop-on-divergence", action="store_true",
        help="stop a program's seed sweep at its first divergence")
    parser.add_argument(
        "--fuse", action="store_true",
        help="also run every sweep a third time with superinstruction "
             "fusion on, assert it is bit-identical to the optimized run, "
             "and assert record/replay logs and fingerprints are identical "
             "with the flag on and off")
    parser.add_argument(
        "--fuse-bench", action="store_true",
        help="measure fused vs optimized steps/s under a round-robin "
             "scheduler with a shared fuse engine (the configuration "
             "fusion is designed for)")
    parser.add_argument(
        "--fuse-floor", type=float, default=None, metavar="X",
        help="with --fuse-bench, fail any program whose fused speedup "
             "falls below X")
    return parser.parse_args(argv)


def check_program(spec, args):
    diff = diff_program(spec, seeds=range(args.seeds),
                        stop_on_divergence=args.stop_on_divergence,
                        fuse=args.fuse)
    diff = diff_reports(spec, diff, fuse=args.fuse)
    if args.counters:
        diff = diff_counters(spec, diff, fuse=args.fuse)
    if args.fuse:
        diff.divergences.extend(diff_record_replay(
            spec, seeds=range(min(args.seeds, 3))))
    return diff


def save_metrics(diff, out_dir, bench=None):
    metrics = PipelineMetrics(diff.program, jobs=1)
    with metrics.stage("reference_execute", unit="seeds") as stage:
        stage.items = len(diff.seeds)
        stage.absorb_run_stats([RunStats(
            seed=-1, reason="sweep", steps=diff.reference_steps,
            wall_seconds=diff.reference_seconds)])
    with metrics.stage("optimized_execute", unit="seeds") as stage:
        stage.items = len(diff.seeds)
        stage.absorb_run_stats([RunStats(
            seed=-1, reason="sweep", steps=diff.optimized_steps,
            wall_seconds=diff.optimized_seconds)])
    # the stage context manager measured its own (trivial) wall time; the
    # real timings come from the sweep itself
    metrics.stages[0].wall_seconds = diff.reference_seconds
    metrics.stages[1].wall_seconds = diff.optimized_seconds
    metrics.total_seconds = diff.reference_seconds + diff.optimized_seconds
    metrics.blocks["diff_oracle"] = diff.as_dict()
    if bench is not None:
        metrics.blocks["diff_oracle"]["fused_bench"] = bench
    path = os.path.join(out_dir, "metrics_diffcheck_%s.json" % diff.program)
    return metrics.save(path)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.programs:
        specs = [spec_by_name(name) for name in args.programs]
    else:
        specs = all_specs()
    failures = 0
    for spec in specs:
        diff = check_program(spec, args)
        verdict = "identical" if diff.identical else "DIVERGED"
        fused_note = ""
        if args.fuse:
            fused_note = "  fused %10.0f steps/s" % (
                diff.fused_steps_per_second)
        print("%-14s seeds=%d  ref %10.0f steps/s  opt %10.0f steps/s%s  "
              "speedup %.2fx  %s" % (
                  diff.program, len(diff.seeds),
                  diff.reference_steps_per_second,
                  diff.optimized_steps_per_second, fused_note,
                  diff.speedup, verdict))
        for divergence in diff.divergences:
            print("  " + divergence.describe().replace("\n", "\n  "))
        if not diff.identical:
            failures += 1
        bench = None
        if args.fuse_bench:
            bench = benchmark_fused(spec, seeds=range(args.seeds))
            print("  fuse bench: %.2fx over optimized (round-robin, "
                  "%d%% fused steps, %d blocks)" % (
                      bench["fused_speedup"],
                      round(bench["fused_step_share"] * 100),
                      bench["compiled_blocks"]))
            if (args.fuse_floor is not None
                    and bench["fused_speedup"] < args.fuse_floor):
                print("  FUSE FLOOR VIOLATED: %.3fx < %.2fx" % (
                    bench["fused_speedup"], args.fuse_floor))
                failures += 1
        if args.metrics_out:
            path = save_metrics(diff, args.metrics_out, bench=bench)
            print("  metrics -> %s" % path)
    if failures:
        print("FAIL: %d program(s) diverged" % failures)
        return 1
    print("OK: %d program(s), zero divergence" % len(specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
