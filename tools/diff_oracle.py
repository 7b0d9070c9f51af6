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

The optimized VM fuses superinstructions wherever its scheduler commits
a run (:mod:`repro.runtime.fuse`).  With ``--fuse`` a third, stepwise
execution (``stepwise_execution()``: optimized, but one instruction per
decision) joins every sweep and must be bit-identical to the optimized
one — per seed under the random scheduler and under the spec's own
detector family (PCT for SKI specs), and for the report sets and
counters — and each family's optimized runs must have fused at least one
step.  The optimized runs also skip read-only loops at a fixed point;
their event streams then carry every skipped event, so the comparison is
still event by event, and the ``diff_oracle`` block reports the skipped
steps per family next to the fused ones.  (Recording and replaying VMs never fuse: their schedulers observe
every decision, so they get no fuse engine.)  ``--fuse-bench`` measures
the fused-vs-stepwise steps/s ratio under a round-robin scheduler (where
``run_length`` has real no-preempt windows — the random scheduler fuses
only while one thread is runnable, so the sweep's ``fused_speedup``
proves parity, not performance) and ``--fuse-floor`` turns that into a
gate.

With ``--debugger`` every race report and vulnerability of a pipeline run
also goes through its verifier in reference mode and as shipped: outcomes
(verified, runs used, security hints; the realized verdict) must be
equal, and each run's breakpoint halts (step, halted threads, pending
accesses) as shipped must be a prefix of the reference run's — the
shipped race verifier ends a run once it can no longer catch its race.
Both sides' VM steps go into the ``diff_oracle`` block.  The shipped race
verifier's runs take over the trunk of their seed where they can (one
shared prefix per seed, as in the pipeline); the block counts the shipped
runs that did (``debugger_trunk_runs``) and those that started from step 0
(``debugger_fresh_runs``).  Each race report is verified a third time, as
shipped with every run fresh, and each trunk-sharing run must equal its
fresh run exactly — every halt, the last reason and the step it ended at
— since the reference side cannot tell where a shipped run stopped.

Usage::

    PYTHONPATH=src python tools/diff_oracle.py                # all apps, 10 seeds
    PYTHONPATH=src python tools/diff_oracle.py --programs memcached apache_log \\
        --seeds 10 --counters --fuse --metrics-out benchmarks/out
    PYTHONPATH=src python tools/diff_oracle.py --programs linux --seeds 12 \\
        --fuse --counters
    PYTHONPATH=src python tools/diff_oracle.py --programs memcached \\
        --fuse-bench --fuse-floor 1.3
    PYTHONPATH=src python tools/diff_oracle.py --programs ssdb --debugger

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
    diff_debugger,
    diff_program,
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
        help="also run every sweep a third time stepwise (no "
             "superinstruction fusion), under the random scheduler and the "
             "spec's detector family, and assert the optimized (fused) run "
             "is bit-identical to it and fused at least one step")
    parser.add_argument(
        "--debugger", action="store_true",
        help="also verify every race report and vulnerability of a "
             "pipeline run in reference mode and as shipped, and assert "
             "equal outcomes and breakpoint halts, and every trunk-served "
             "race run equal to a fresh shipped run")
    parser.add_argument(
        "--fuse-bench", action="store_true",
        help="measure fused vs stepwise steps/s under a round-robin "
             "scheduler (the configuration fusion is designed for)")
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
    if args.debugger:
        diff = diff_debugger(spec, diff)
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
        stepwise_note = ""
        if args.fuse:
            stepwise_note = "  stepwise %10.0f steps/s" % (
                diff.stepwise_steps_per_second)
        print("%-14s seeds=%d  ref %10.0f steps/s  opt %10.0f steps/s%s  "
              "speedup %.2fx  %s" % (
                  diff.program, len(diff.seeds),
                  diff.reference_steps_per_second,
                  diff.optimized_steps_per_second, stepwise_note,
                  diff.speedup, verdict))
        if args.fuse:
            print("  fused steps: %s" % ", ".join(
                "%s %d (%d skipped)" % (family, steps,
                                        diff.skipped_steps[family])
                for family, steps in sorted(diff.fused_steps.items())))
        if args.debugger:
            print("  debugger: %d items, %d runs (%d from a trunk, %d "
                  "fresh), %d reference steps, %d shipped steps" % (
                      diff.debugger_items, diff.debugger_runs,
                      diff.debugger_trunk_runs, diff.debugger_fresh_runs,
                      diff.debugger_reference_steps,
                      diff.debugger_shipped_steps))
        for divergence in diff.divergences:
            print("  " + divergence.describe().replace("\n", "\n  "))
        if not diff.identical:
            failures += 1
        bench = None
        if args.fuse_bench:
            bench = benchmark_fused(spec, seeds=range(args.seeds))
            print("  fuse bench: %.2fx over stepwise (round-robin, "
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
