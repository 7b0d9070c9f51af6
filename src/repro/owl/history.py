"""Benchmark trajectory store: one line per run, appended forever.

A single metrics file (:mod:`repro.runtime.metrics`) is a snapshot; the
questions that matter across PRs — "is the VM getting faster?", "did the
cache hit rate fall off a cliff?", "are the Table 3 counters drifting?" —
need a *trajectory*.  Every pipeline/benchmark run appends one compact
record to ``benchmarks/out/history.jsonl`` (through :mod:`repro.jsonl`):
program, throughput, per-stage wall time, cache hit rate, the parity
counters, and the git revision that produced it.  ``tools/bench_regress.py``
reads the tail of this file and gates CI on it.

Records derive from the metrics JSON (any supported schema), so old
metrics files can be backfilled with :func:`record_from_metrics`.  Wall
times and throughput are observations; the ``counters`` block is the
deterministic parity surface — two records for the same program at the
same revision must agree on it bit-for-bit regardless of job count.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, Optional

__all__ = [
    "HISTORY_SCHEMA",
    "default_history_path",
    "git_revision",
    "record_from_metrics",
]

#: Version stamped into every history record.
HISTORY_SCHEMA = 1

#: The parity counters copied out of the telemetry block.  These are the
#: Table 2/3 numbers — any drift between runs of the same revision is a
#: determinism bug, not a perf change.
_PARITY_COUNTERS = (
    "pipeline.raw_reports",
    "pipeline.after_annotation",
    "pipeline.remaining",
    "pipeline.vulnerability_reports",
    "pipeline.attacks",
    "pipeline.attacks_realized",
)


def default_history_path(out_dir: str = "benchmarks/out") -> str:
    return os.path.join(out_dir, "history.jsonl")


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current short git revision, or None outside a work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def record_from_metrics(data: Dict, timestamp: Optional[float] = None,
                        git_rev: Optional[str] = None) -> Dict:
    """Build one history record from a metrics dict (any schema).

    ``timestamp``/``git_rev`` default to "now" and the repo's HEAD; pass
    them explicitly when backfilling old metrics files.
    """
    stages = {stage["name"]: stage for stage in data.get("stages", ())}
    detect = stages.get("detect", {})

    cache = data.get("cache")
    cache_hit_rate = None
    if cache is not None:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache_hit_rate = (cache["hits"] / lookups) if lookups else 0.0

    counters: Dict[str, int] = {}
    telemetry = data.get("telemetry") or {}
    for name in _PARITY_COUNTERS:
        value = telemetry.get("counters", {}).get(name)
        if value is not None:
            counters[name] = value

    record = {
        "schema": HISTORY_SCHEMA,
        "timestamp": time.time() if timestamp is None else timestamp,
        "git_rev": git_revision() if git_rev is None else git_rev,
        "program": data.get("program"),
        "jobs": data.get("jobs", 1),
        "total_seconds": round(data.get("total_seconds", 0.0), 6),
        "steps_per_second": detect.get("steps_per_second", 0.0),
        "vm_steps": data.get("vm_steps", 0),
        "stage_wall": {
            name: round(stage.get("wall_seconds", 0.0), 6)
            for name, stage in sorted(stages.items())
        },
        "cache_hit_rate": (
            round(cache_hit_rate, 4) if cache_hit_rate is not None else None
        ),
        "counters": counters,
    }
    return record

