"""Tests of the benchmark harness itself, at smoke size (libsafe + apache_log).

    python3 -m pytest benchmarks/perf
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "perf_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load_harness()

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run_smoke(out, *extra):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seconds", "0.5", "--out", str(out)] + list(extra),
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    return completed, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    return [run_smoke(tmp_path_factory.mktemp("traced"), "--trace")
            for _ in range(2)]


def assert_printed(stdout, line, metrics):
    assert sorted(line["metrics"]) == sorted(m["name"] for m in metrics)
    for metric in metrics:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert any(text.split()[:1] == [metric["name"]]
                   and text.split()[-1] == metric["unit"]
                   for text in stdout.splitlines())


def test_every_metric_printed_with_unit(tmp_path, traced_pair):
    completed, line = run_smoke(tmp_path)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert_printed(completed.stdout, line, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    completed, line = traced_pair[0]
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert_printed(completed.stdout, line, BENCHMARK["per_layer"])


def test_wrong_expected_rows_fail_every_verdict(tmp_path):
    with open(harness.EXPECTED) as handle:
        expected = json.load(handle)
    for program in harness.WORKLOADS["smoke"].programs:
        expected["programs"][program]["parity"]["raw_reports"] += 1
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    completed, line = run_smoke(tmp_path, "--expected", str(wrong))
    assert completed.returncode != 0
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0
    with open(tmp_path / "runs.jsonl") as handle:
        record = json.loads(handle.readline())
    assert record["verdict_fail_rate"] == 1.0


def _span(name, start, end, parent=None):
    span = layers.Span(name, name, start, parent, "test")
    span.end = end
    return span


def test_self_time_arithmetic():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a
        _span("c", 9.0, 12.0, parent=0),   # runs past its parent
    ]
    # root: 10 minus the union [1, 6] + [9, 10] of its children's cover
    assert layers.self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]
    nested = [_span("root", 0.0, 5.0), _span("x", 1.0, 2.0, parent=0),
              _span("y", 2.0, 4.5, parent=0), _span("z", 3.0, 4.0, parent=2)]
    assert sum(layers.self_times(nested)) == pytest.approx(5.0)
    assert layers.layer_self_seconds(nested) == pytest.approx(
        {"root": 1.5, "x": 1.0, "y": 1.5, "z": 1.0})
    assert layers.self_metric("race_verify") == "race_verify.self_s"
    assert layers.self_metric("cache.get") == "cache.get_s"


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    probe = layers.Tracer()
    layers.install(probe)
    originals = probe.patched()
    probe.restore()
    assert len(originals) >= 20
    from repro.apps.registry import spec_by_name

    workload = harness.WORKLOADS["smoke"]
    specs = {name: spec_by_name(name) for name in workload.programs}
    expected = harness.load_expected(harness.EXPECTED)
    runner = harness.Runner(workload, specs, expected, 0, str(tmp_path))
    args = argparse.Namespace(seconds=0.1, out=str(tmp_path))
    outcome = harness.traced_run(runner, args)
    assert not runner.failures
    assert outcome["layers"]["vm.steps"]["value"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)


def test_deterministic_layer_counts_repeat(traced_pair):
    (first_run, first), (second_run, second) = traced_pair
    assert first_run.returncode == 0 and second_run.returncode == 0
    for name in ("vm.steps", "race_verify.runs", "cache.hits"):
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name] == second["metrics"][name], name


def _records(path, walls, failed=0):
    with open(path, "w") as handle:
        for wall in walls:
            handle.write(json.dumps({
                "workload": "w", "trace": 0, "failed": failed,
                "attempted": 4,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            }) + "\n")
    return str(path)


def test_compare_flags_regressions_and_noise(tmp_path, capsys):
    wall = [m for m in BENCHMARK["end_to_end"] if m["name"] == "wall_s"]
    bound = wall[0]["bound"]

    def runs(name, *shares, failed=0):
        walls = [10.0 * (1 + share) for share in shares]
        return compare.load_runs(_records(tmp_path / name, walls, failed))

    base = runs("a", 0.0, 0.01, -0.01)
    same = runs("b", 0.02, 0.0, 0.01)
    slow = runs("c", 2 * bound, 2 * bound + 0.01, 2 * bound - 0.01)
    noisy = runs("d", -bound, 2 * bound, 0.0)
    broken = runs("e", 0.0, failed=1)
    assert compare.compare(base, same, wall) == 0
    assert compare.compare(base, slow, wall) == 1
    assert compare.compare(base, noisy, wall) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(base, broken, wall) == 1
