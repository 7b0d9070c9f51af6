#!/usr/bin/env python3
"""The OWL benchmark: time to a checked verdict on four workloads.

Run from the repository root (no install and no PYTHONPATH needed)::

    python3 benchmarks/perf/run.py                        # every workload
    python3 benchmarks/perf/run.py --workload apps_verify --seed 0 --seconds 20
    python3 benchmarks/perf/run.py --workload repair_fix --trace   # layers

Each workload runs in a fresh subprocess, so set-up time, peak RSS and
module-level memos belong to that workload alone.  The load is a closed
loop from one client: the harness runs the workload's programs one after
another through the public APIs (``OwlPipeline.run``, ``repair_program``,
``ResultCache``), one *pass* at a time, until ``--seconds`` have elapsed,
and checks every (program, pass) verdict against ``expected.json``.

``--seed S`` picks the detect-seed windows: pass ``k`` gives each program
``detect_seeds = range(w*n, w*n + n)`` with ``w = windows[(S + k) %
len(windows)]`` from ``expected.json``, ``n`` being the program's own
seed count.  Outside the pinned windows the verdicts change (mysql
realizes one of its two attacks at windows 2, 5 and 6) or the workload
changes character (linux stops hitting its step budget), so they are not
used.  The programs only ever see the generated spec.

Untraced runs report the end-to-end metrics: ``wall_s`` (one pass,
summed from each program's median run), ``setup_s`` (median of several
fresh-process set-ups) and ``peak_rss_mb``.  Both times are quiet-host
seconds: each is divided by the slowdown a fixed reference loop shows on
the shared host while it runs (:class:`HostSampler` during passes,
:func:`host_slowdown` around set-up); ``runs.jsonl`` keeps the raw times.
``--trace`` alternates untraced passes with passes under the wrappers of
:mod:`layers` and reports the per-layer metrics instead.
Every metric is printed as ``name value unit``; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Each workload's record is also appended to ``<out>/runs.jsonl`` (the
input of ``compare.py``); traced runs write ``trace_<workload>.json``
(Chrome trace_event) and ``layers_<workload>.json`` there too.  The exit
status is non-zero when any verdict failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_OUT = os.path.join(HERE, "out")

#: set-up is repeated in fresh processes this often before and after the
#: workload process (which sets up once more); setup_s is the median
SETUP_PROBES = (2, 2)
#: per-subprocess wall limits (seconds); the whole run must end in 180
CHILD_TIMEOUT = 170
PROBE_TIMEOUT = 30

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The measuring host is shared: for minutes at a time other tenants slow
# every instruction here by up to 2x, CPU time included.  A short fixed
# loop slows down with it, so a time divided by the loop's slowdown
# sampled during it is the time the quiet host would have taken.

#: seconds one reference loop takes on the measuring host when it is quiet
REFERENCE_LOOP_S = 0.0013
#: reference loops timed back to back by :func:`host_slowdown`
CALIBRATION_LOOPS = 60


def reference_loop() -> int:
    """Fixed pure-Python work sharing no code with the program under test."""
    table: Dict[int, int] = {}
    items = []
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        items.append((key, i & 7))
    items.sort()
    return len(items)


def timed_loop() -> float:
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def host_slowdown() -> float:
    """How many times slower than quiet the host runs right now."""
    loops = [timed_loop() for _ in range(CALIBRATION_LOOPS)]
    return statistics.median(loops) / REFERENCE_LOOP_S


class HostSampler:
    """Samples host speed during the work being measured.

    While active, an interval timer runs one reference loop every
    ``PERIOD`` seconds of wall time (about 1% extra work), so the samples
    come from the same seconds as the timed calls.  Pool workers forked
    meanwhile do not inherit the timer.
    """

    PERIOD = 0.1

    def __init__(self):
        self.loops: List[float] = []

    def slowdown(self) -> Optional[float]:
        if not self.loops:
            return None
        return statistics.median(self.loops) / REFERENCE_LOOP_S

    def _tick(self, signum, frame) -> None:
        self.loops.append(timed_loop())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Workload:
    """One set of programs, the path they take, and how often."""

    def __init__(self, name: str, programs, kind: str, jobs: int = 1,
                 warm_passes: int = 0):
        self.name = name
        self.programs = tuple(programs)
        #: "pipeline": OwlPipeline.run; "repair": run + repair_program;
        #: "cache": a cold run into a fresh ResultCache, then warm re-runs
        self.kind = kind
        self.jobs = jobs
        self.warm_passes = warm_passes


#: Why each workload exists is in README.md; the numbers below are fixed
#: by it, not tuned per run.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("apps_verify",
                 ("apache", "chrome", "mysql", "memcached", "ssdb"),
                 "pipeline"),
        Workload("kernel_detect", ("linux",), "pipeline"),
        Workload("cache_rerun", ("chrome", "mysql", "memcached", "ssdb"),
                 "cache", jobs=2, warm_passes=40),
        Workload("repair_fix", ("memcached", "apache_log"), "repair"),
        # The harness's own tests run this; BENCHMARK.json does not.
        Workload("smoke", ("libsafe", "apache_log"), "cache", jobs=1,
                 warm_passes=2),
    )
}
BENCHMARK_WORKLOADS = ("apps_verify", "kernel_detect", "cache_rerun",
                       "repair_fix")


# ---------------------------------------------------------------------------
# the verdict oracle


def load_expected(path: str) -> Dict:
    """Read and sanity-check the hand-written oracle."""
    with open(path) as handle:
        expected = json.load(handle)
    windows = expected.get("windows")
    if (not isinstance(windows, list) or not windows
            or not all(isinstance(w, int) and w >= 0 for w in windows)):
        raise ValueError("%s: windows must be a non-empty list of "
                         "non-negative integers" % path)
    for workload in WORKLOADS.values():
        for program in workload.programs:
            if program not in expected["programs"]:
                raise ValueError("%s: no row for %s" % (path, program))
            if workload.kind == "repair" and program not in expected["repair"]:
                raise ValueError("%s: no repair row for %s" % (path, program))
    return expected


def check_pipeline(row: Dict, result) -> List[str]:
    """Realized ground-truth attacks and Table-3 counters vs the oracle."""
    problems = []
    realized = sorted({truth.attack_id
                       for truth in result.detected_ground_truths()})
    if realized != sorted(row["attacks"]):
        problems.append("realized attacks %s, expected %s"
                        % (realized, sorted(row["attacks"])))
    parity = result.counters.parity_dict()
    for key, want in sorted(row["parity"].items()):
        if parity.get(key) != want:
            problems.append("%s = %s, expected %s"
                            % (key, parity.get(key), want))
    return problems


def check_repair(row: Dict, repair) -> List[str]:
    block = repair.metrics_block()
    got = {"targets": block["targets"], "emitted": block["emitted"],
           "matched": block["ground_truth"]["matched"]}
    return [] if got == row else ["repair %s, expected %s" % (got, row)]


def fingerprint(result):
    """What a warm cache run must reproduce bit for bit."""
    return (result.counters.parity_dict(),
            sorted((p.uid, p.disposition) for p in result.provenance))


# ---------------------------------------------------------------------------
# passes


class Runner:
    """Runs one workload's passes and keeps the verdict tally."""

    def __init__(self, workload: Workload, specs: Dict, expected: Dict,
                 seed: int, work_dir: str):
        self.workload = workload
        self.specs = specs
        self.expected = expected
        self.seed = seed
        self.work_dir = work_dir
        self.seed_counts = {name: len(spec.detect_seeds)
                            for name, spec in specs.items()}
        #: a layers.Tracer while a traced pass runs
        self.tracer = None
        self.attempted = 0
        self.failures: List[Dict] = []
        #: quiet-host seconds of every run of each segment (a program, or
        #: a program's warm re-runs), and how often a pass runs the segment
        self.samples: Dict[str, List[float]] = {}
        self.weights: Dict[str, int] = {}
        #: samples host speed during untraced passes (None: no scaling)
        self.sampler: Optional[HostSampler] = None
        #: the host slowdown each scaled pass was divided by
        self.slowdowns: List[float] = []
        self._pass_samples: List[Tuple[str, float]] = []

    def window(self, index: int) -> int:
        windows = self.expected["windows"]
        return windows[(self.seed + index) % len(windows)]

    def pass_estimate(self) -> float:
        """One pass's quiet-host wall time from each segment's median run.

        A short slow spell on the shared host then costs one sample of one
        program instead of a whole pass; long ones are divided out by
        :class:`HostSampler`.
        """
        return sum(self.weights[segment] * statistics.median(times)
                   for segment, times in self.samples.items())

    def run_pass(self, index: int, window: int) -> float:
        """One pass over every program; returns its wall seconds."""
        for name, spec in self.specs.items():
            count = self.seed_counts[name]
            spec.detect_seeds = list(range(window * count,
                                           window * count + count))
        run = {"pipeline": self._pipeline_pass, "repair": self._repair_pass,
               "cache": self._cache_pass}[self.workload.kind]
        scale = 1.0
        if self.sampler is not None:
            self.sampler.loops = []
        wall = run(index)
        if self.sampler is not None:
            # A pass too short to be sampled is measured right after.
            scale = self.sampler.slowdown() or host_slowdown()
            self.slowdowns.append(scale)
        for segment, elapsed in self._pass_samples:
            self.samples.setdefault(segment, []).append(elapsed / scale)
        self._pass_samples = []
        return wall

    def _attempt(self, request: str, segment: str, call, check,
                 weight: int = 1):
        """One (program, pass) run: time ``call``, then check its verdict."""
        self.attempted += 1
        span = None
        if self.tracer is not None:
            self.tracer.request = request
            span = self.tracer.open(request, "harness")
        started = time.perf_counter()
        try:
            if self.sampler is not None:
                with self.sampler:
                    value = call()
            else:
                value = call()
            problems = None
        except Exception as error:  # a raising run is a failed verdict
            traceback.print_exc(file=sys.stderr)
            value, problems = None, ["raised %s: %s"
                                     % (type(error).__name__, error)]
        elapsed = time.perf_counter() - started
        self._pass_samples.append((segment, elapsed))
        self.weights[segment] = weight
        if span is not None:
            self.tracer.close(span)
        if problems is None:
            problems = check(value)
        if problems:
            self.failures.append({"request": request, "problems": problems})
        return elapsed, value

    def _request(self, program: str, index) -> str:
        return "%s/%s/%s" % (self.workload.name, program, index)

    def _row(self, program: str) -> Dict:
        return self.expected["programs"][program]

    def _pipeline_pass(self, index: int) -> float:
        from repro.owl.pipeline import OwlPipeline

        wall = 0.0
        for name, spec in self.specs.items():
            elapsed, _ = self._attempt(
                self._request(name, index), name,
                lambda: OwlPipeline(spec, jobs=self.workload.jobs).run(),
                lambda result: check_pipeline(self._row(name), result))
            wall += elapsed
        return wall

    def _repair_pass(self, index: int) -> float:
        from repro.owl import repair
        from repro.owl.pipeline import OwlPipeline

        def fix(spec):
            result = OwlPipeline(spec, jobs=self.workload.jobs).run()
            return result, repair.repair_program(spec, result=result)

        wall = 0.0
        for name, spec in self.specs.items():
            elapsed, _ = self._attempt(
                self._request(name, index), name, lambda: fix(spec),
                lambda value: (check_pipeline(self._row(name), value[0])
                               + check_repair(self.expected["repair"][name],
                                              value[1])))
            wall += elapsed
        return wall

    def _cache_pass(self, index: int) -> float:
        """A cold run of every program into a fresh cache, then
        ``warm_passes`` re-runs answered from it."""
        from repro.owl.cache import ResultCache
        from repro.owl.pipeline import OwlPipeline

        def cached_run(spec, root):
            cache = ResultCache(root)
            return (OwlPipeline(spec, jobs=self.workload.jobs,
                                cache=cache).run(), cache)

        def check_warm(name, value, cold):
            result, cache = value
            problems = check_pipeline(self._row(name), result)
            if cache.misses:
                problems.append("warm run missed the cache %d times"
                                % cache.misses)
            if fingerprint(result) != cold:
                problems.append("warm parity/provenance differ from cold")
            return problems

        root = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        try:
            wall = 0.0
            cold = {}
            for name, spec in self.specs.items():
                elapsed, value = self._attempt(
                    self._request(name, index), name,
                    lambda: cached_run(spec, root),
                    lambda value: check_pipeline(self._row(name), value[0]))
                wall += elapsed
                if value is not None:
                    cold[name] = fingerprint(value[0])
            if self.tracer is not None:
                self.tracer.count("cache.bytes", tree_bytes(root))
            for warm in range(self.workload.warm_passes):
                for name, spec in self.specs.items():
                    elapsed, _ = self._attempt(
                        self._request(name, "%d.w%d" % (index, warm)),
                        name + ".warm", lambda: cached_run(spec, root),
                        lambda value: check_warm(name, value, cold.get(name)),
                        weight=self.workload.warm_passes)
                    wall += elapsed
            return wall
        finally:
            shutil.rmtree(root, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _dirs, files in os.walk(root)
               for name in files)


# ---------------------------------------------------------------------------
# the workload subprocess


def child_main(args) -> int:
    before = host_slowdown()
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    from repro.apps.registry import spec_by_name
    # Imported here so set-up time includes every layer a pass calls.
    from repro.owl import pipeline, repair  # noqa: F401
    from repro.owl.cache import code_version

    workload = WORKLOADS[args.workload]
    specs = {}
    for name in workload.programs:
        specs[name] = spec_by_name(name)
        specs[name].build()
    version = code_version()
    setup_raw_s = time.perf_counter() - started
    after = host_slowdown()
    setup_s = setup_raw_s / ((before + after) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    expected = load_expected(args.expected)
    os.makedirs(args.out, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    runner = Runner(workload, specs, expected, args.seed, work_dir)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "code_version": version,
              "nproc": os.cpu_count(), "setup_s": setup_s,
              "setup_raw_s": setup_raw_s}
    try:
        if args.trace:
            record.update(traced_run(runner, args))
        else:
            walls, windows = [], []
            runner.sampler = HostSampler()
            began = time.perf_counter()
            while not walls or time.perf_counter() - began < args.seconds:
                windows.append(runner.window(len(walls)))
                walls.append(runner.run_pass(len(walls), windows[-1]))
                if len(walls) == 1:
                    # Later passes add a pass-count-dependent creep.
                    record["peak_rss_mb"] = peak_rss_mb()
            record.update(walls=walls, windows=windows,
                          wall_s=runner.pass_estimate(),
                          segments=runner.samples,
                          slowdowns=runner.slowdowns)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["attempted"] = runner.attempted
    record["failures"] = runner.failures
    print(json.dumps(record))
    return 0


def traced_run(runner: Runner, args) -> Dict:
    """Untraced and traced passes in turn, all on the seed's window.

    Alternating keeps warm-up out of the comparison that gives
    ``trace.overhead``; the wrappers are on only during traced passes.
    """
    import layers

    window = runner.window(0)
    tracer = layers.Tracer()
    plain, walls = [], []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        index = len(plain) + len(walls)
        if len(plain) == len(walls):
            plain.append(runner.run_pass(index, window))
            continue
        layers.install(tracer)
        runner.tracer = tracer
        try:
            walls.append(runner.run_pass(index, window))
        finally:
            tracer.restore()
            runner.tracer = None
    passes = len(walls)
    untraced = statistics.median(plain)
    values = layers.layer_metrics(tracer, passes, untraced,
                                  statistics.median(walls))
    covered = sum(seconds for layer, seconds
                  in layers.layer_self_seconds(tracer.spans).items()
                  if layer != layers.HARNESS)
    summary = {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "window": window,
        "passes": passes,
        "untraced_wall_s": untraced,
        "traced_wall_s": walls,
        "layer_coverage": covered / sum(walls),
        "layers": layers.layer_table(tracer, passes),
        "metrics": {name: {"value": values[name],
                           "unit": layers.LAYER_METRICS[name]}
                    for name in layers.LAYER_METRICS},
    }
    name = runner.workload.name
    write_json(os.path.join(args.out, "layers_%s.json" % name), summary)
    write_json(os.path.join(args.out, "trace_%s.json" % name),
               layers.chrome_trace(tracer.spans))
    return {"walls": walls, "windows": [window] * passes,
            "untraced_wall_s": untraced,
            "layer_coverage": summary["layer_coverage"],
            "layers": summary["metrics"]}


def write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# the parent: probes, the workload subprocess, reporting


def spawn(argv: List[str], timeout: float) -> Optional[Dict]:
    """Run one harness subprocess; its last stdout line, parsed, or None.

    The child gets its own process group so a timeout also stops the
    pool workers it started.
    """
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + argv,
        stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print("run.py: %s timed out after %ds" % (argv, timeout),
              file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        print("run.py: %s exited with %d" % (argv, process.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def setup_probes(count: int, common: List[str]) -> Optional[List[Dict]]:
    probes = []
    for _ in range(count):
        probe = spawn(["--child", "--setup-only"] + common, PROBE_TIMEOUT)
        if probe is None:
            return None
        probes.append(probe)
    return probes


def run_workload(name: str, args) -> Optional[Dict]:
    common = ["--workload", name, "--seed", str(args.seed),
              "--expected", args.expected, "--out", args.out]
    # Probes on both sides of the workload spread set-up samples over the
    # run, so one slow spell on the host does not move all of them.
    before, after = SETUP_PROBES if not args.trace else (0, 0)
    probes = setup_probes(before, common)
    if probes is None:
        return None
    child = spawn(["--child", "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + common, CHILD_TIMEOUT)
    if child is None:
        return None
    later = setup_probes(after, common)
    if later is None:
        return None
    probes += later
    failed = len(child["failures"])
    record = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "code_version": child["code_version"],
        "nproc": child["nproc"],
        "passes": len(child["walls"]),
        "windows": child["windows"],
        "samples": {"pass_wall_s": child["walls"],
                    "segments": child.get("segments", {}),
                    "slowdowns": child.get("slowdowns", []),
                    "setup_s": [p["setup_s"] for p in probes + [child]],
                    "setup_raw_s": [p["setup_raw_s"]
                                    for p in probes + [child]]},
        "correct": failed == 0,
        "attempted": child["attempted"],
        "failed": failed,
        "verdict_fail_rate": failed / child["attempted"],
        "failures": child["failures"][:20],
    }
    if args.trace:
        record["untraced_wall_s"] = child["untraced_wall_s"]
        record["layer_coverage"] = child["layer_coverage"]
        record["metrics"] = child["layers"]
    else:
        values = {
            "wall_s": child["wall_s"],
            "setup_s": statistics.median(record["samples"]["setup_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        record["metrics"] = {
            metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
            for metric, value in values.items()}
    return record


def report(record: Dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    print("== %s (seed %d, %s, %d passes over windows %s, nproc %s) =="
          % (record["workload"], record["seed"],
             "traced" if record["trace"] else "untraced", record["passes"],
             sorted(set(record["windows"])), record["nproc"]))
    for metric, entry in record["metrics"].items():
        print("  %-30s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    print("  verdicts: %d attempted, %d failed (verdict_fail_rate %.4g)"
          % (record["attempted"], record["failed"],
             record["verdict_fail_rate"]))
    for failure in record["failures"]:
        print("  FAIL %s: %s" % (failure["request"],
                                 "; ".join(failure["problems"])))
    if record["trace"]:
        print("  layer self times cover %.1f%% of traced pass wall"
              % (100.0 * record["layer_coverage"]))


def result_line(records: List[Dict]) -> Dict:
    """The last stdout line: one workload's metrics, or every workload's
    prefixed by its name."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (record["workload"], metric): entry
                   for record in records
                   for metric, entry in record["metrics"].items()}
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: the four benchmark "
                             "workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="runs.jsonl and trace outputs go here")
    parser.add_argument("--expected", default=EXPECTED,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.out = os.path.abspath(args.out)
    args.expected = os.path.abspath(args.expected)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        args.workload = args.workload[0]
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("run.py: no OWL sources under %s; run from the root of a "
              "checkout of the repository" % SRC, file=sys.stderr)
        return 2
    load_expected(args.expected)
    os.makedirs(args.out, exist_ok=True)
    records = []
    for name in args.workload or BENCHMARK_WORKLOADS:
        record = run_workload(name, args)
        if record is None:
            return 1
        report(record)
        with open(os.path.join(args.out, "runs.jsonl"), "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        records.append(record)
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
