"""A SKI-style systematic schedule explorer for kernel programs.

SKI (Fonseca et al., OSDI '14) finds kernel races by controlling the
interleaving of vCPUs from outside the kernel.  Here "kernel programs" are IR
modules whose entry spawns one thread per in-flight syscall; the explorer
perturbs their interleaving with PCT schedules over many seeds, which plays
the role of SKI's schedule exploration.

Paper section 6.3 required two modifications to SKI's default reporting
policy, both implemented by the shared happens-before engine
(:class:`repro.detectors.tsan.TSanDetector`):

- after a race, the racy address joins a *watch list*; the call stack of
  every subsequent read of the watched address is captured into the report
  ("All the call stacks of the following read to the watched variable will
  be printed"),
- a write to a watched address sanitizes it and stops the watch.

The explorer also honours the kernel-stack reconstruction caveat: reports
carry full call stacks (our threads always have frame pointers, matching the
paper's CONFIG_FRAME_POINTER workaround).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.detectors.annotations import AnnotationSet
from repro.detectors.report import ReportSet
from repro.detectors.tsan import TSanDetector
from repro.ir.module import Module
from repro.runtime.metrics import RunStats


class SkiDetector(TSanDetector):
    """The happens-before engine with SKI's report labelling."""

    name = "ski"


def run_ski(
    module: Module,
    entry: str = "main",
    inputs: Optional[Dict] = None,
    seeds: Sequence[int] = range(20),
    annotations: Optional[AnnotationSet] = None,
    max_steps: int = 200_000,
    depth: int = 3,
) -> Tuple[ReportSet, List[RunStats]]:
    """Systematically explore schedules of a kernel program.

    Each seed yields one PCT schedule (random priorities with ``depth - 1``
    change points), SKI's published exploration strategy class.  Reports are
    merged across seeds with static deduplication.  Pools, caching and
    exploration work as for :func:`repro.detectors.tsan.run_tsan`.
    """
    from repro.detectors.annotations import annotations_to_payload
    from repro.detectors.seed import SeedJob, run_seeds

    job = SeedJob(kind="ski", depth=depth, entry=entry, inputs=inputs,
                  max_steps=max_steps,
                  annotations=annotations_to_payload(annotations))
    return run_seeds(module, job, seeds)
