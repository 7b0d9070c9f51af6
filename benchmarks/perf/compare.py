#!/usr/bin/env python3
"""Compare two sets of untraced benchmark runs, metric by metric.

    python3 benchmarks/perf/compare.py A B

``A`` (the parent) and ``B`` (the change) are ``runs.jsonl`` files written
by ``run.py --out``, or directories holding one.  For every (workload,
end-to-end metric) it prints both medians and quartiles over the runs,
and the change of B's median against A's as a share of A's median:

- ``REGRESSION`` — B is worse by more than the metric's bound from
  BENCHMARK.json (exit status 1);
- ``unresolved`` — A's or B's quartile spread is wider than the bound, so
  a move of that size cannot be told from noise, unless every B run is
  better than every A run;
- ``better`` — B is better by more than the bound;
- ``ok`` — within the bound.

Any failed verdict in B beyond A's count is a regression too, as is a
workload or metric that A has and B lacks.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def load_runs(path: str) -> Dict[str, List[Dict]]:
    """Untraced run records by workload."""
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs: Dict[str, List[Dict]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """The comparison outcome and B's worsening as a share of A's median."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = (b_med - a_med) / a_med
    if not lower_is_better:
        worse = -worse
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if lower_is_better:
        b_wins_all = max(b) < min(a)
    else:
        b_wins_all = min(b) > max(a)
    if spread > bound:
        return ("better" if b_wins_all else "unresolved"), worse
    if worse > bound:
        return "REGRESSION", worse
    if -worse > bound:
        return "better", worse
    return "ok", worse


def compare(a_runs: Dict[str, List[Dict]], b_runs: Dict[str, List[Dict]],
            metrics: List[Dict]) -> int:
    regressions = 0
    print("%-14s %-12s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3] (n)",
        "B median [q1, q3] (n)", "change", "bound", "verdict"))
    for workload in sorted(a_runs):
        if workload not in b_runs:
            print("%-14s missing from B" % workload)
            regressions += 1
            continue
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]
                 if name in r["metrics"]]
            if not a:
                continue
            if not b:
                print("%-14s %-12s missing from B" % (workload, name))
                regressions += 1
                continue
            outcome, worse = verdict(a, b, metric["bound"],
                                     metric["better"] == "lower")
            regressions += outcome == "REGRESSION"
            print("%-14s %-12s %-32s %-32s %+7.1f%% %5.0f%%  %s" % (
                workload, name, describe(a), describe(b), 100 * worse,
                100 * metric["bound"], outcome))
        a_failed = sum(r["failed"] for r in a_runs[workload])
        b_failed = sum(r["failed"] for r in b_runs[workload])
        b_attempted = sum(r["attempted"] for r in b_runs[workload])
        outcome = "REGRESSION" if b_failed > a_failed else "ok"
        regressions += outcome == "REGRESSION"
        print("%-14s %-12s A %d failed, B %d of %d failed  %s" % (
            workload, "verdicts", a_failed, b_failed, b_attempted, outcome))
    return regressions


def describe(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] (%d)" % (median, q1, q3, len(values))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    regressions = compare(load_runs(argv[0]), load_runs(argv[1]), metrics)
    if regressions:
        print("%d regression(s)" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
