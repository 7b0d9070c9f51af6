"""Outside-in layer tracing for the OWL benchmark.

The tracer never edits ``src/``.  For the length of a traced run it
replaces public functions of each layer with wrappers that record a span
(name, start, end, parent, request) around every call and count work at
the same boundary; :meth:`Tracer.restore` puts the originals back.  Spans
stay in memory and are written when the run ends.

A layer's self time is the duration of its spans minus the part of each
span's interval that its child spans cover, so the self times of all
layers (plus the harness root spans) add up to the traced wall time.  VM
steps are attributed to the innermost open span when ``VM.run`` returns,
which is how the verifier, vuln-verifier and repair-gate VMs get counted.
"""

from __future__ import annotations

import functools
import pickle
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the layer of the harness's own root span around each (program, pass) run
HARNESS = "harness"


class Span:
    """One call into a layer."""

    __slots__ = ("name", "layer", "start", "end", "parent", "request")

    def __init__(self, name: str, layer: str, start: float,
                 parent: Optional[int], request: str):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Tracer:
    """Span stack, work counters and the patch journal of one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: VM steps by the layer of the innermost span open at ``VM.run``
        self.layer_steps: Counter = Counter()
        #: wall milliseconds of each single-report race verification
        self.report_ms: List[float] = []
        #: ``<workload>/<program>/<pass>`` stamped on every new span
        self.request = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans and counts

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def innermost_layer(self) -> str:
        return self.spans[self._stack[-1]].layer if self._stack else HARNESS

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # ------------------------------------------------------------------
    # patching

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with
        ``make(original)`` until :meth:`restore`."""
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def spanned(self, layer: str, after: Optional[Callable] = None):
        """A ``make`` for :meth:`patch`: time each call as a ``layer`` span,
        then call ``after(tracer, span, args, kwargs, result)``."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = self.open(original.__qualname__, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(self, span, args, kwargs, result)
                return result

            return wrapper

        return make

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attr, original)`` for every active patch."""
        return list(self._patches)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# the wrapped layers


def _after_detect(tracer, span, args, kwargs, result):
    tracer.count("detect.calls")
    tracer.count("detect.reports", len(result[0]))
    tracer.count("detect.vm_steps",
                 sum(stat.steps for stat in kwargs.get("stats_out") or ()))


def _after_adhoc(tracer, span, args, kwargs, result):
    tracer.count("adhoc.annotations", len(result))


def _after_race_batch(tracer, span, args, kwargs, result):
    tracer.count("race_verify.reports", len(result))
    tracer.count("race_verify.runs", sum(v.runs_used for v in result))
    tracer.count("race_verify.verified", sum(1 for v in result if v.verified))


def _after_verify_report(tracer, span, args, kwargs, result):
    tracer.report_ms.append((span.end - span.start) * 1e3)


def _after_analyze(tracer, span, args, kwargs, result):
    tracer.count("vuln_analysis.sites", len(result))


def _after_vuln_batch(tracer, span, args, kwargs, result):
    tracer.count("vuln_verify.runs", sum(v.runs_used for v, _ in result))
    tracer.count("vuln_verify.realized",
                 sum(1 for v, _ in result if v.attack_realized))


def _after_cache_get(tracer, span, args, kwargs, result):
    tracer.count("cache.get_calls")
    if result is not None:
        tracer.count("cache.hits")


def _after_cache_put(tracer, span, args, kwargs, result):
    tracer.count("cache.put_calls")


def _after_cached_tasks(tracer, span, args, kwargs, result):
    tracer.count("batch.tasks", len(result))


def _after_run_tasks(tracer, span, args, kwargs, result):
    payloads = kwargs["payloads"] if "payloads" in kwargs else args[1]
    tracer.count("batch.payload_bytes", len(pickle.dumps(list(payloads))))


def _after_synthesize(tracer, span, args, kwargs, result):
    if result is not None:
        tracer.count("repair.candidates")


def _after_repair(tracer, span, args, kwargs, result):
    tracer.count("repair.emitted", len(result.emitted))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public functions (see the README map)."""
    from repro.owl import adhoc, batch, cache, pipeline, race_verifier, repair
    from repro.owl import vuln_analysis
    from repro.runtime import debugger, interpreter

    spanned = tracer.spanned
    # Module functions are wrapped where their caller looks them up:
    # pipeline imports run_detector and the batch verifiers by name.
    tracer.patch(pipeline.OwlPipeline, "run", spanned("pipeline"))
    tracer.patch(pipeline, "run_detector", spanned("detect", _after_detect))
    tracer.patch(adhoc.AdhocSyncDetector, "analyze",
                 spanned("adhoc", _after_adhoc))
    tracer.patch(pipeline, "verify_races_batch",
                 spanned("race_verify", _after_race_batch))
    tracer.patch(race_verifier.DynamicRaceVerifier, "verify",
                 spanned("race_verify", _after_verify_report))
    tracer.patch(vuln_analysis.VulnerabilityAnalyzer, "analyze_report",
                 spanned("vuln_analysis", _after_analyze))
    tracer.patch(pipeline, "verify_vulns_batch",
                 spanned("vuln_verify", _after_vuln_batch))
    tracer.patch(cache.ResultCache, "get",
                 spanned("cache.get", _after_cache_get))
    tracer.patch(cache.ResultCache, "put",
                 spanned("cache.put", _after_cache_put))
    tracer.patch(batch, "run_cached_tasks",
                 spanned("batch.tasks", _after_cached_tasks))
    tracer.patch(batch, "run_tasks",
                 spanned("batch.tasks", _after_run_tasks))
    tracer.patch(pipeline, "make_executor", spanned("batch.pool_start"))
    tracer.patch(repair, "repair_program", spanned("repair", _after_repair))
    tracer.patch(repair, "synthesize", spanned("repair", _after_synthesize))
    for gate in ("gate_oracle", "gate_detector", "gate_schedulers"):
        tracer.patch(repair, gate, spanned("repair." + gate))
    tracer.patch(repair, "clone_module", spanned("ir.clone"))

    breakpoint_reason = interpreter.ExecutionResult.BREAKPOINT

    def make_vm_init(original):
        @functools.wraps(original)
        def __init__(vm, *args, **kwargs):
            original(vm, *args, **kwargs)
            tracer.count("vm.instances")

        return __init__

    def make_vm_run(original):
        @functools.wraps(original)
        def run(vm, *args, **kwargs):
            before = vm.step
            result = original(vm, *args, **kwargs)
            steps = vm.step - before
            tracer.count("vm.run_calls")
            tracer.count("vm.steps", steps)
            tracer.layer_steps[tracer.innermost_layer()] += steps
            if result.reason == breakpoint_reason:
                tracer.count("debugger.halts")
            return result

        return run

    def make_release(original):
        @functools.wraps(original)
        def release_one(self_debugger):
            thread = original(self_debugger)
            if thread is not None:
                tracer.count("debugger.livelock_releases")
            return thread

        return release_one

    tracer.patch(interpreter.VM, "__init__", make_vm_init)
    tracer.patch(interpreter.VM, "run", make_vm_run)
    tracer.patch(debugger.Debugger, "release_one", make_release)


# ---------------------------------------------------------------------------
# arithmetic


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        clipped = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(index, ())
        )
        covered = 0.0
        reach = span.start
        for start, end in clipped:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def self_metric(layer: str) -> str:
    """``race_verify`` -> ``race_verify.self_s``; ``cache.get`` ->
    ``cache.get_s``."""
    return layer + ("_s" if "." in layer else ".self_s")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


#: every per-layer metric: name -> unit (BENCHMARK.json lists the same)
LAYER_METRICS = {
    "detect.calls": "count",
    "detect.self_s": "s",
    "detect.vm_steps": "count",
    "detect.us_per_step": "us",
    "detect.reports": "count",
    "adhoc.self_s": "s",
    "adhoc.annotations": "count",
    "race_verify.self_s": "s",
    "race_verify.reports": "count",
    "race_verify.runs": "count",
    "race_verify.verified": "count",
    "race_verify.verified_per_run": "ratio",
    "race_verify.report_ms_p50": "ms",
    "race_verify.report_ms_p90": "ms",
    "race_verify.vm_steps": "count",
    "race_verify.us_per_step": "us",
    "debugger.halts": "count",
    "debugger.livelock_releases": "count",
    "vm.instances": "count",
    "vm.run_calls": "count",
    "vm.steps": "count",
    "vuln_analysis.self_s": "s",
    "vuln_analysis.sites": "count",
    "vuln_verify.self_s": "s",
    "vuln_verify.runs": "count",
    "vuln_verify.realized": "count",
    "vuln_verify.vm_steps": "count",
    "cache.get_calls": "count",
    "cache.get_s": "s",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_calls": "count",
    "cache.put_s": "s",
    "cache.bytes": "bytes",
    "batch.tasks": "count",
    "batch.tasks_s": "s",
    "batch.pool_start_s": "s",
    "batch.payload_bytes": "bytes",
    "repair.self_s": "s",
    "repair.candidates": "count",
    "repair.emitted_per_candidate": "ratio",
    "repair.gate_oracle_s": "s",
    "repair.gate_detector_s": "s",
    "repair.gate_schedulers_s": "s",
    "repair.vm_steps": "count",
    "ir.clone_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, passes: int, untraced_wall: float,
                  traced_wall: float) -> Dict[str, float]:
    """Per-pass values of every :data:`LAYER_METRICS` entry.

    Counts and self times are totals over the traced passes divided by
    ``passes``; ratios and percentiles are taken over all of them.
    ``trace.overhead`` is ``traced_wall / untraced_wall - 1``.
    """
    per_pass = 1.0 / passes
    counts = tracer.counts
    steps = tracer.layer_steps
    selfs = layer_self_seconds(tracer.spans)
    values: Dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith("_s"):
            values[name] = 0.0
        else:
            values[name] = counts.get(name, 0) * per_pass
    for layer, seconds in selfs.items():
        name = self_metric(layer)
        if name in values:
            values[name] = seconds * per_pass
    values["race_verify.vm_steps"] = steps.get("race_verify", 0) * per_pass
    values["vuln_verify.vm_steps"] = steps.get("vuln_verify", 0) * per_pass
    values["repair.vm_steps"] = sum(
        count for layer, count in steps.items()
        if layer == "repair" or layer.startswith("repair.")) * per_pass
    values["detect.us_per_step"] = 1e6 * _ratio(
        selfs.get("detect", 0.0), counts.get("detect.vm_steps", 0))
    values["race_verify.us_per_step"] = 1e6 * _ratio(
        selfs.get("race_verify", 0.0), steps.get("race_verify", 0))
    values["race_verify.verified_per_run"] = _ratio(
        counts.get("race_verify.verified", 0),
        counts.get("race_verify.runs", 0))
    values["race_verify.report_ms_p50"] = _percentile(tracer.report_ms, 0.5)
    values["race_verify.report_ms_p90"] = _percentile(tracer.report_ms, 0.9)
    values["cache.hit_ratio"] = _ratio(
        counts.get("cache.hits", 0), counts.get("cache.get_calls", 0))
    values["repair.emitted_per_candidate"] = _ratio(
        counts.get("repair.emitted", 0), counts.get("repair.candidates", 0))
    values["trace.overhead"] = _ratio(traced_wall, untraced_wall) - 1.0
    return values


# ---------------------------------------------------------------------------
# output


def chrome_trace(spans: Sequence[Span]) -> Dict:
    """Chrome ``trace_event`` JSON (complete events, microseconds)."""
    origin = spans[0].start if spans else 0.0
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"id": index, "parent": span.parent,
                         "request": span.request},
            }
            for index, span in enumerate(spans)
        ],
    }


def layer_table(tracer: Tracer, passes: int) -> Dict[str, Dict[str, float]]:
    """Per layer: spans, self seconds and attributed VM steps, per pass."""
    calls = Counter(span.layer for span in tracer.spans)
    selfs = layer_self_seconds(tracer.spans)
    layers = sorted(set(calls) | set(tracer.layer_steps))
    return {
        layer: {
            "spans": calls.get(layer, 0) / passes,
            "self_s": selfs.get(layer, 0.0) / passes,
            "vm_steps": tracer.layer_steps.get(layer, 0) / passes,
        }
        for layer in layers
    }
