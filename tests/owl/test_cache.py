"""Tests for the content-addressed result cache (repro.owl.cache).

The contract under test: a cache hit returns exactly what the worker
originally produced, so cached and uncached runs — at any job count —
emit bit-identical ``StageCounters.parity_dict()`` and provenance
dispositions; and a corrupted or stale entry degrades to a miss, never to
a wrong result.
"""

import gc
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import spec_by_name
from repro.owl import cache as cache_module
from repro.owl.cache import (
    CACHE_SCHEMA,
    ResultCache,
    _canonical,
    code_version,
    module_digest,
    stable_hash,
)
from repro.owl.pipeline import OwlPipeline
from repro.runtime.metrics import SCHEMA_VERSION


def run_pipeline(spec, cache=None, jobs=1):
    return OwlPipeline(spec, jobs=jobs, cache=cache).run()


@pytest.fixture(scope="module")
def baseline():
    """One uncached serial run to compare every cached variant against."""
    return run_pipeline(spec_by_name("libsafe"))


class TestKeys:
    def test_stable_hash_is_container_shape_insensitive(self):
        assert stable_hash((1, 2, 3)) == stable_hash([1, 2, 3])
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_stable_hash_handles_workload_value_types(self):
        # workload inputs use int keys, bytes and nested containers
        value = {1: b"\x00payload", "x": [(1, 2), None, True]}
        assert stable_hash(value) == stable_hash(value)
        assert stable_hash(value) != stable_hash({1: b"other"})

    def test_module_digest_distinguishes_programs(self):
        libsafe = spec_by_name("libsafe").build()
        ssdb = spec_by_name("ssdb").build()
        assert module_digest(libsafe) == module_digest(
            spec_by_name("libsafe").build())
        assert module_digest(libsafe) != module_digest(ssdb)

    def test_key_varies_with_stage_config_and_code(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        module = spec_by_name("libsafe").build()
        base = cache.key("detect", module=module, seed=1)
        assert base == cache.key("detect", module=module, seed=1)
        assert base != cache.key("detect", module=module, seed=2)
        assert base != cache.key("race_verify", module=module, seed=1)
        other = ResultCache(str(tmp_path), version="different-code")
        assert base != other.key("detect", module=module, seed=1)

    def test_code_version_is_memoized_and_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_module_key_never_reuses_a_collected_modules_digest(
            self, tmp_path):
        """Patched clones come and go at recycled addresses: the digest
        memo must follow the module object, not its ``id``."""
        from repro.ir.patch import clone_module
        from repro.owl.repair import synthesize

        spec = spec_by_name("apache_log")
        original = spec.build()
        report = sorted(run_pipeline(spec).remaining_reports,
                        key=lambda r: r.static_key)[0]
        cache = ResultCache(str(tmp_path))
        for index in range(50):
            clone = clone_module(original)
            strategy = ("mutex", "order")[index % 2]
            assert synthesize(strategy, clone, report.static_key) is not None
            assert cache.module_key(clone) == module_digest(clone)
            del clone
            gc.collect()


def canonical_model(value):
    """``_canonical`` as it was when each dict sorted its entries by
    ``repr`` of the whole canonical entry, kept as the model the key-only
    sort must equal."""
    if isinstance(value, dict):
        entries = [[canonical_model(key), canonical_model(item)]
                   for key, item in value.items()]
        entries.sort(key=repr)
        return ["dict", entries]
    if isinstance(value, (list, tuple)):
        return ["list", [canonical_model(item) for item in value]]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    return ["repr", repr(value)]


def rendered(canonical) -> str:
    """What ``stable_hash`` hashes."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


class _Alike:
    """Distinct objects whose reprs are equal: keys that render alike."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "<alike>"


#: dict keys of every type cache keys use, with numbers whose reprs
#: prefix one another side by side
_KEYS = st.one_of(
    st.sampled_from([1, 10, -1, -10, 1.5, 1e16, 0, 100, "1", "10", b"1"]),
    st.integers(-200, 200),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.booleans(),
    st.none(),
    st.tuples(st.sampled_from([1, 10, -1, 1.5]), st.text(max_size=2)),
)
_VALUES = st.recursive(
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
              st.booleans(), st.none(), st.binary(max_size=3)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_KEYS, children, max_size=6),
    ),
    max_leaves=30,
)


class TestCanonicalOrder:
    """Dict entries sorted by their rendered keys alone: every key stays
    byte-identical to the whole-entry sort."""

    @given(st.dictionaries(_KEYS, _VALUES, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_key_sort_equals_whole_entry_sort(self, value):
        assert rendered(_canonical(value)) == rendered(canonical_model(value))

    def test_prefix_numbers_side_by_side(self):
        value = {10: "a", 1: "b", -1: "c", 1.5: "d", -10: "e", 1e16: "f",
                 "1": {1: 1, 10: 10}}
        canonical = _canonical(value)
        assert rendered(canonical) == rendered(canonical_model(value))
        assert [entry[0] for entry in canonical[1]] == [
            "1", -1, -10, 1, 1.5, 10, 1e16]

    def test_keys_that_render_alike_sort_by_whole_entry(self):
        value = {_Alike(1): 2, _Alike(2): 1, "x": {_Alike(3): [3]}}
        assert rendered(_canonical(value)) == rendered(canonical_model(value))

    def test_every_key_of_a_cold_run_is_unchanged(self, tmp_path,
                                                  monkeypatch):
        """The four ``cache_rerun`` programs, cold, at ``jobs=1``."""
        payloads = []
        hash_of = cache_module.stable_hash

        def recording(value):
            payloads.append(value)
            return hash_of(value)

        monkeypatch.setattr(cache_module, "stable_hash", recording)
        cache = ResultCache(str(tmp_path))
        for name in ("chrome", "mysql", "memcached", "ssdb"):
            run_pipeline(spec_by_name(name), cache=cache)
        assert len(payloads) > 100
        for payload in payloads:
            assert (rendered(_canonical(payload))
                    == rendered(canonical_model(payload)))


class TestWarmParity:
    def test_cold_then_warm_bit_identical(self, tmp_path, baseline):
        spec = spec_by_name("libsafe")
        cold_cache = ResultCache(str(tmp_path))
        cold = run_pipeline(spec, cache=cold_cache)
        assert cold_cache.hits == 0 and cold_cache.stores > 0
        assert cold.counters.parity_dict() == baseline.counters.parity_dict()

        warm_cache = ResultCache(str(tmp_path))
        warm = run_pipeline(spec, cache=warm_cache)
        # zero VM re-executions for unchanged work: every stage item hits
        assert warm_cache.misses == 0
        assert warm_cache.hits == cold_cache.stores
        assert warm.counters.parity_dict() == baseline.counters.parity_dict()
        assert (warm.provenance.as_dict()
                == baseline.provenance.as_dict()
                == cold.provenance.as_dict())

    def test_parallel_writes_serial_reads(self, tmp_path, baseline):
        spec = spec_by_name("libsafe")
        cold_cache = ResultCache(str(tmp_path))
        cold = run_pipeline(spec, cache=cold_cache, jobs=2)
        assert cold.counters.parity_dict() == baseline.counters.parity_dict()

        warm_cache = ResultCache(str(tmp_path))
        warm = run_pipeline(spec, cache=warm_cache, jobs=1)
        assert warm_cache.misses == 0 and warm_cache.hits > 0
        assert warm.counters.parity_dict() == baseline.counters.parity_dict()
        assert warm.provenance.as_dict() == baseline.provenance.as_dict()

    def test_two_cold_runs_write_identical_entry_trees(self, tmp_path):
        """Entries hold results, never timings: two cold explore+predict
        runs into two fresh caches write byte-identical entries in every
        stage."""
        from repro.detectors.predict import PredictPolicy
        from repro.owl.explore import ExplorePolicy

        def entry_tree(root):
            tree = {}
            for directory, _, names in os.walk(root):
                for name in names:
                    path = os.path.join(directory, name)
                    with open(path, "rb") as handle:
                        tree[os.path.relpath(path, root)] = handle.read()
            return tree

        trees = []
        for name in ("a", "b"):
            root = str(tmp_path / name)
            OwlPipeline(spec_by_name("memcached"), cache=ResultCache(root),
                        explore=ExplorePolicy(predict=PredictPolicy())).run()
            trees.append(entry_tree(root))
        stages = {path.split(os.sep)[0] for path in trees[0]}
        assert {"detect", "predict", "adhoc", "race_verify",
                "vuln_analysis"} <= stages
        assert trees[0] == trees[1]

    def test_metrics_blocks_present(self, tmp_path):
        spec = spec_by_name("libsafe")
        cache = ResultCache(str(tmp_path))
        result = run_pipeline(spec, cache=cache)
        data = result.metrics.as_dict()
        assert data["schema"] == SCHEMA_VERSION
        assert data["cache"]["stores"] == cache.stores
        assert data["cache"]["code_version"] == cache.version
        assert "detect" in data["cache"]["stages"]
        assert data["batch"]["retry_budget"] == 2
        detect = result.metrics.stage_by_name("detect")
        assert detect.extra["cache_misses"] > 0


class TestCorruptionHandling:
    def seed_one_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key("detect", seed=7)
        path = cache.put("detect", key, {"answer": 42})
        return cache, key, path

    def test_round_trip(self, tmp_path):
        cache, key, _ = self.seed_one_entry(tmp_path)
        assert cache.get("detect", key) == {"answer": 42}
        assert cache.hits == 1
        assert cache.corrupt == 0

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        cache, key, path = self.seed_one_entry(tmp_path)
        with open(path, "w") as handle:
            handle.write('{"schema": %d, "val' % CACHE_SCHEMA)
        assert cache.get("detect", key) is None
        assert not os.path.exists(path)
        assert cache.misses == 1
        assert cache.stage_counters("detect")["corrupt"] == 1
        assert cache.counters()["corrupt"] == 1
        assert "(1 corrupt)" in cache.describe()

    def test_schema_mismatch_is_a_miss_and_deleted(self, tmp_path):
        cache, key, path = self.seed_one_entry(tmp_path)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["schema"] = CACHE_SCHEMA + 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert cache.get("detect", key) is None
        assert not os.path.exists(path)
        assert (cache.misses, cache.corrupt) == (1, 1)

    def test_misfiled_entry_is_a_miss_and_deleted(self, tmp_path):
        cache, key, path = self.seed_one_entry(tmp_path)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["key"] = "0" * 64  # entry claims a different content key
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert cache.get("detect", key) is None
        assert not os.path.exists(path)
        assert (cache.misses, cache.corrupt) == (1, 1)

    def test_stale_code_version_never_matches(self, tmp_path):
        old = ResultCache(str(tmp_path), version="old-code")
        module = spec_by_name("libsafe").build()
        old.put("detect", old.key("detect", module=module, seed=1), {"v": 1})
        current = ResultCache(str(tmp_path), version="new-code")
        # same logical work, different code version -> different key -> miss
        assert current.get(
            "detect", current.key("detect", module=module, seed=1)) is None
        assert current.misses == 1
        assert current.corrupt == 0  # a cold miss, not damage

    def test_corrupted_entry_mid_pipeline_stays_correct(self, tmp_path,
                                                        baseline):
        import glob

        spec = spec_by_name("libsafe")
        run_pipeline(spec, cache=ResultCache(str(tmp_path)))
        entries = sorted(glob.glob(str(tmp_path / "detect" / "*" / "*.json")))
        assert entries
        with open(entries[0], "w") as handle:
            handle.write("not json at all")
        warm_cache = ResultCache(str(tmp_path))
        warm = run_pipeline(spec, cache=warm_cache)
        assert warm_cache.misses >= 1  # the corrupted entry re-ran
        assert warm.metrics.blocks["cache"]["stages"]["detect"]["corrupt"] == 1
        assert warm.telemetry["counters"]["cache.detect.corrupt"] == 1
        assert warm.counters.parity_dict() == baseline.counters.parity_dict()
        assert warm.provenance.as_dict() == baseline.provenance.as_dict()


class TestPutFailure:
    """``put`` is an accelerator, never a correctness dependency: ordinary
    store failures degrade to counted misses with no temp-file litter, but
    Ctrl-C mid-store must still stop the run."""

    def test_store_error_degrades_and_counts(self, tmp_path, monkeypatch):
        import glob

        cache = ResultCache(str(tmp_path))

        def explode(_src, _dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        assert cache.put("detect", "ab" * 32, {"v": 1}) is None
        assert cache.store_errors == 1
        assert cache.stores == 0
        assert not glob.glob(str(tmp_path / "detect" / "*" / "*.tmp"))

    def test_non_json_value_is_a_store_error(self, tmp_path):
        import glob

        cache = ResultCache(str(tmp_path))
        key = "34" * 32
        assert cache.put("detect", key, {"uids": {1, 2}}) is None
        assert (cache.store_errors, cache.stores) == (1, 0)
        assert not glob.glob(str(tmp_path / "detect" / "*" / "*"))
        assert cache.get("detect", key) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_unwritable_directory_degrades(self, tmp_path):
        blocker = tmp_path / "root"
        blocker.write_text("a file where the cache root should be")
        cache = ResultCache(str(blocker))
        assert cache.put("detect", "cd" * 32, {"v": 1}) is None
        assert cache.store_errors == 1

    def test_keyboard_interrupt_reraised_after_cleanup(self, tmp_path,
                                                       monkeypatch):
        import glob

        cache = ResultCache(str(tmp_path))

        def interrupt(_src, _dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cache.put("detect", "ef" * 32, {"v": 1})
        # the partial temp file was discarded, and this is not an "error"
        # the run should account as degraded caching — it is a stop
        assert not glob.glob(str(tmp_path / "detect" / "*" / "*.tmp"))
        assert cache.store_errors == 0

    def test_failed_store_leaves_next_put_working(self, tmp_path,
                                                  monkeypatch):
        cache = ResultCache(str(tmp_path))
        original_replace = os.replace

        def explode_once(src, dst):
            monkeypatch.setattr(os, "replace", original_replace)
            raise OSError("transient")

        monkeypatch.setattr(os, "replace", explode_once)
        key = "12" * 32
        assert cache.put("detect", key, {"v": 1}) is None
        assert cache.put("detect", key, {"v": 1}) is not None
        assert cache.get("detect", key) == {"v": 1}
