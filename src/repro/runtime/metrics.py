"""Per-stage observability for the OWL pipeline.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; that only means something if throughput is measured.  This module
records, for every pipeline stage, the wall time, the VM work performed
(interpreter steps, shared-memory accesses observed by the detector) and the
item throughput (reports verified per second, seeds explored per second,
...), and exports the lot as JSON next to the benchmark tables under
``benchmarks/out/``.

The exported JSON (one file per program run) is a frozen envelope::

    {
      "schema": 9,
      "program": "apache",          # ProgramSpec name
      "jobs": 4,                    # worker processes (1 = serial)
      "total_seconds": 12.3,
      "vm_steps": 2400000,
      "accesses": 310000,
      "stages": [
        {
          "name": "detect",
          "wall_seconds": 8.1,
          "items": 715,             # stage-specific unit, see "unit"
          "unit": "reports",
          "runs": 12,               # VM executions performed
          "vm_steps": 2400000,      # interpreter steps across those runs
          "accesses": 310000,       # shared accesses the detector shadowed
          "steps_per_second": 296296.3,
          "items_per_second": 88.3,
          "cache_hits": 12,         # stage extras, e.g. of cached runs
          "cache_misses": 0
        },
        ...
      ],
      "<block>": {...},             # optional blocks, sorted by name
      ...
    }

Optional blocks and their producers:

==============  =====================================================
block           producer
==============  =====================================================
``batch``       :meth:`repro.owl.batch.BatchPolicy.counters`
``cache``       :meth:`repro.owl.cache.ResultCache.counters`
``diff_oracle`` :meth:`repro.runtime.diffcheck.ProgramDiff.as_dict`
                (``tools/diff_oracle.py``)
``explore``     :meth:`repro.owl.explore.ExplorationResult.metrics_block`
``fuse``        ``OwlPipeline._fuse_block`` (:mod:`repro.owl.pipeline`)
``predict``     :meth:`repro.detectors.predict.PredictionResult.metrics_block`
``repair``      :meth:`repro.owl.repair.RepairResult.metrics_block`
``replay``      :meth:`repro.owl.replay.ReplaySource.metrics_block`
``telemetry``   :meth:`repro.runtime.telemetry.MetricsRegistry.snapshot`
                (plus the optional profiler summary)
==============  =====================================================

**The envelope rule.**  ``"schema"`` stays 9.  A new optional block
bumps nothing: it is one more name in :attr:`PipelineMetrics.blocks`.  A
block whose layout changes incompatibly takes a new name, so no reader
ever has to check a per-block version.  Files from schemas 1–8 are the
same envelope with fewer blocks, so :func:`load_metrics` reads every
integer schema from 1 to 9.

Counters (:class:`repro.owl.pipeline.StageCounters`) stay byte-identical
between serial and parallel runs; metrics are *observations* and naturally
vary with the machine and worker count, so they live in a separate object.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: The frozen envelope version (see the module docstring's rule).
SCHEMA_VERSION = 9


class MetricsSchemaError(ValueError):
    """A metrics file declares a schema this code cannot interpret."""


class RunStats:
    """Lightweight, picklable summary of one VM execution.

    The parallel batch engine cannot ship :class:`ExecutionResult` objects
    across process boundaries (they reference interpreter state and IR
    instructions); workers return these instead.
    """

    __slots__ = ("seed", "reason", "steps", "accesses", "reports",
                 "wall_seconds")

    def __init__(self, seed: int, reason: str, steps: int, accesses: int = 0,
                 reports: int = 0, wall_seconds: float = 0.0):
        self.seed = seed
        self.reason = reason
        self.steps = steps
        self.accesses = accesses
        self.reports = reports
        self.wall_seconds = wall_seconds

    def as_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "reason": self.reason,
            "steps": self.steps,
            "accesses": self.accesses,
            "reports": self.reports,
            "wall_seconds": self.wall_seconds,
        }

    def __repr__(self) -> str:
        return "<RunStats seed=%d %s steps=%d accesses=%d>" % (
            self.seed, self.reason, self.steps, self.accesses,
        )


class StageMetrics:
    """Wall time and work counters for one pipeline stage."""

    def __init__(self, name: str, unit: str = "items"):
        self.name = name
        self.unit = unit
        self.wall_seconds = 0.0
        self.items = 0
        self.runs = 0
        self.vm_steps = 0
        self.accesses = 0
        self.extra: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def absorb_run_stats(self, stats: Iterable[RunStats]) -> None:
        """Fold per-execution stats (serial or from workers) into the stage."""
        for stat in stats:
            self.runs += 1
            self.vm_steps += stat.steps
            self.accesses += stat.accesses

    @property
    def steps_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.vm_steps / self.wall_seconds

    @property
    def items_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.items / self.wall_seconds

    def counts(self) -> Dict:
        """The row without its name and timings: what the stage's span
        carries into the run log (:mod:`repro.owl.runlog`)."""
        data = {"unit": self.unit, "items": self.items, "runs": self.runs,
                "vm_steps": self.vm_steps, "accesses": self.accesses}
        data.update(self.extra)
        return data

    def as_dict(self) -> Dict:
        data = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "items": self.items,
            "unit": self.unit,
            "runs": self.runs,
            "vm_steps": self.vm_steps,
            "accesses": self.accesses,
            "steps_per_second": round(self.steps_per_second, 1),
            "items_per_second": round(self.items_per_second, 1),
        }
        data.update(self.extra)
        return data

    def __repr__(self) -> str:
        return "<StageMetrics %s %.3fs %d %s>" % (
            self.name, self.wall_seconds, self.items, self.unit,
        )


class PipelineMetrics:
    """All stages of one pipeline run, exportable as JSON."""

    def __init__(self, program: str, jobs: int = 1):
        self.program = program
        self.jobs = jobs
        self.stages: List[StageMetrics] = []
        self.total_seconds = 0.0
        #: Optional blocks by name (see the module docstring's table).
        self.blocks: Dict[str, Dict] = {}

    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, unit: str = "items"):
        """Time a stage; the yielded :class:`StageMetrics` collects counters."""
        metrics = StageMetrics(name, unit=unit)
        started = time.perf_counter()
        try:
            yield metrics
        finally:
            metrics.wall_seconds = time.perf_counter() - started
            self.stages.append(metrics)

    def stage_by_name(self, name: str) -> Optional[StageMetrics]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    @property
    def vm_steps(self) -> int:
        return sum(stage.vm_steps for stage in self.stages)

    @property
    def accesses(self) -> int:
        return sum(stage.accesses for stage in self.stages)

    def as_dict(self) -> Dict:
        data = {
            "schema": SCHEMA_VERSION,
            "program": self.program,
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "vm_steps": self.vm_steps,
            "accesses": self.accesses,
            "stages": [stage.as_dict() for stage in self.stages],
        }
        for name in sorted(self.blocks):
            data[name] = self.blocks[name]
        return data

    def save(self, path: str) -> str:
        """Write the metrics JSON; returns the path written."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")
        return path

    def describe(self) -> str:
        lines = [
            "pipeline metrics: %s (jobs=%d, %.3fs total)" % (
                self.program, self.jobs, self.total_seconds,
            )
        ]
        for stage in self.stages:
            lines.append(
                "  %-22s %8.3fs  %6d %-8s %9d steps  %12.1f steps/s" % (
                    stage.name, stage.wall_seconds, stage.items, stage.unit,
                    stage.vm_steps, stage.steps_per_second,
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<PipelineMetrics %s jobs=%d stages=%d %.3fs>" % (
            self.program, self.jobs, len(self.stages), self.total_seconds,
        )


def metrics_path(out_dir: str, program: str) -> str:
    """Canonical location of a program's metrics file under ``out_dir``."""
    return os.path.join(out_dir, "metrics_%s.json" % program)


def load_metrics(path: str) -> Dict:
    """Load a metrics JSON file, rejecting unknown schema versions.

    Raises :class:`MetricsSchemaError` when the file declares no ``schema``
    field (pre-versioning files cannot be compared safely) or a version this
    code does not know how to read.
    """
    with open(path) as handle:
        data = json.load(handle)
    version = data.get("schema")
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        raise MetricsSchemaError(
            "metrics file %s declares unsupported schema version %r "
            "(supported: 1-%d)" % (path, version, SCHEMA_VERSION))
    return data
