#!/usr/bin/env python3
"""Benchmark-trajectory regression gate over ``history.jsonl``.

For every program in the history file, compares the latest record against
a trailing baseline (the median ``steps_per_second`` of the preceding
``--baseline-window`` records for the same program and job count) and
fails when throughput regressed by more than ``--max-regression`` percent.
Independently, it checks the deterministic parity counters: the latest
record must agree bit-for-bit with the most recent prior record for the
same program — counters never legitimately drift without a code change,
so any mismatch across records of the *same* git revision is an error,
and a mismatch across revisions is reported for a human to bless.

Usage::

    PYTHONPATH=src python tools/bench_regress.py                     # gate
    PYTHONPATH=src python tools/bench_regress.py --report-only       # CI FYI
    PYTHONPATH=src python tools/bench_regress.py \\
        --history benchmarks/out/history.jsonl --max-regression 20

Exit status 0 when every program is within budget (or ``--report-only``),
1 on any throughput regression or same-revision parity drift.  Programs
with fewer than two records are skipped (no trajectory yet).
"""

import argparse
import os
import sys
from statistics import median

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import jsonl
from repro.owl.history import default_history_path


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="fail when the latest benchmark record regresses against "
                    "its trailing baseline")
    parser.add_argument(
        "--history", default=default_history_path(), metavar="PATH",
        help="history.jsonl to gate on (default: %(default)s)")
    parser.add_argument(
        "--max-regression", type=float, default=25.0, metavar="PCT",
        help="maximum tolerated steps/s drop vs the baseline median, in "
             "percent (default: %(default)s)")
    parser.add_argument(
        "--baseline-window", type=int, default=5, metavar="N",
        help="number of trailing records forming the baseline "
             "(default: %(default)s)")
    parser.add_argument(
        "--report-only", action="store_true",
        help="print the comparison but always exit 0 (CI FYI mode)")
    return parser.parse_args(argv)


def group_records(records):
    """history records keyed by (program, jobs), oldest first."""
    groups = {}
    for record in records:
        program = record.get("program")
        if program is None:
            continue
        groups.setdefault((program, record.get("jobs", 1)), []).append(record)
    return groups


def check_throughput(latest, baseline, max_regression):
    """(ok, message) for the latest record vs its trailing baseline."""
    rates = [r.get("steps_per_second", 0.0) for r in baseline]
    rates = [rate for rate in rates if rate > 0.0]
    current = latest.get("steps_per_second", 0.0)
    if not rates or current <= 0.0:
        return True, "no throughput baseline"
    base = median(rates)
    delta_pct = (current - base) / base * 100.0
    message = "%.1f steps/s vs baseline %.1f (%+.1f%%)" % (
        current, base, delta_pct)
    if delta_pct < -max_regression:
        return False, message + " exceeds -%.1f%% budget" % max_regression
    return True, message


def check_parity(latest, previous):
    """(ok, message) comparing the deterministic counters of two records.

    Drift within one git revision is always an error; across revisions it
    is only reported (counter changes are sometimes the point of a PR).
    """
    ours, theirs = latest.get("counters", {}), previous.get("counters", {})
    shared = sorted(set(ours) & set(theirs))
    drifted = [name for name in shared if ours[name] != theirs[name]]
    if not drifted:
        return True, "parity ok (%d counters)" % len(shared)
    detail = ", ".join(
        "%s %s->%s" % (name, theirs[name], ours[name]) for name in drifted)
    same_rev = (latest.get("git_rev") is not None
                and latest.get("git_rev") == previous.get("git_rev"))
    if same_rev:
        return False, "parity DRIFT at rev %s: %s" % (
            latest["git_rev"], detail)
    return True, "counters changed across revisions (review): %s" % detail


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        records, torn = jsonl.read(args.history)
    except ValueError as error:  # a damaged line: nothing here is trustworthy
        print("bench_regress: %s" % error, file=sys.stderr)
        return 1
    if torn:
        print("bench_regress: dropped the torn final line of %s"
              % args.history)
    if not records:
        print("bench_regress: no history at %s (nothing to gate)"
              % args.history)
        return 0

    failures = 0
    for (program, jobs), group in sorted(group_records(records).items()):
        label = "%s (jobs=%d)" % (program, jobs)
        if len(group) < 2:
            print("SKIP %-28s only %d record(s)" % (label, len(group)))
            continue
        latest = group[-1]
        baseline = group[-1 - args.baseline_window:-1]
        ok_perf, perf_msg = check_throughput(latest, baseline,
                                             args.max_regression)
        ok_par, par_msg = check_parity(latest, group[-2])
        status = "PASS" if (ok_perf and ok_par) else "FAIL"
        if not (ok_perf and ok_par):
            failures += 1
        print("%s %-28s %s; %s" % (status, label, perf_msg, par_msg))

    if failures and args.report_only:
        print("bench_regress: %d failure(s) ignored (--report-only)"
              % failures)
        return 0
    if failures:
        print("bench_regress: %d failure(s)" % failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
