"""Session-level fixtures shared by the benchmark harness.

Running the OWL pipeline on every evaluated program is the expensive part;
``pipeline_results`` computes each program's result once per session and the
individual table/figure benchmarks read from the cache.

Set ``OWL_JOBS=N`` in the environment to fan the parallel pipeline stages
out over N worker processes (counters stay identical to the serial run —
see :mod:`repro.owl.batch`).  Each program's per-stage metrics are written
to ``benchmarks/out/metrics_<program>.json`` as the pipeline runs, its
per-report decision record to ``benchmarks/out/provenance_<program>.json``,
and one trajectory record per program to ``benchmarks/out/history.jsonl``
(the input of ``tools/bench_regress.py``).
"""

from __future__ import annotations

import sys
import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

from reporting import OUT_DIR

EVALUATED_PROGRAMS = [
    "apache", "chrome", "libsafe", "linux", "memcached", "mysql", "ssdb",
]

JOBS = max(1, int(os.environ.get("OWL_JOBS", "1")))


class _PipelineCache:
    def __init__(self, jobs: int = JOBS):
        self.jobs = jobs
        self._specs = {}
        self._results = {}

    def spec(self, name: str):
        if name not in self._specs:
            from repro.apps.registry import spec_by_name

            self._specs[name] = spec_by_name(name)
        return self._specs[name]

    def result(self, name: str):
        if name not in self._results:
            from repro import jsonl
            from repro.owl.history import (
                default_history_path, record_from_metrics,
            )
            from repro.owl.pipeline import OwlPipeline
            from repro.owl.provenance import provenance_path
            from repro.runtime.metrics import metrics_path

            result = OwlPipeline(self.spec(name), jobs=self.jobs).run()
            result.metrics.save(metrics_path(OUT_DIR, name))
            result.provenance.save(provenance_path(OUT_DIR, name))
            jsonl.write(default_history_path(OUT_DIR),
                        [record_from_metrics(result.metrics.as_dict())],
                        append=True)
            self._results[name] = result
        return self._results[name]


@pytest.fixture(scope="session")
def pipelines():
    return _PipelineCache()
