"""Tests for fault-tolerant batch execution (BatchPolicy / run_tasks).

The contract under test: a crashed worker process, a transient exception,
or a hung item never fails the batch — it is retried with backoff and, if
still failing, re-run serially in-process with identical results.  The
failure-injecting workers discriminate on the parent pid, so they fail in
worker processes but succeed when the serial fallback runs them inline.
"""

import os
import time

from concurrent.futures import ProcessPoolExecutor

from repro.owl.batch import BatchPolicy, run_cached_tasks, run_tasks
from repro.owl.cache import ResultCache


def crashing_worker(payload):
    """Dies hard in a pool worker; succeeds when run in the parent."""
    if os.getpid() != payload["parent"]:
        os._exit(1)
    return {"ok": payload["index"]}


def flaky_worker(payload):
    """Raises in a pool worker; succeeds when run in the parent."""
    if os.getpid() != payload["parent"]:
        raise RuntimeError("transient failure injected for the test")
    return {"ok": payload["index"]}


def hanging_worker(payload):
    """Outlives any reasonable timeout in a pool worker; instant inline."""
    if os.getpid() != payload["parent"]:
        time.sleep(20)
    return {"ok": payload["index"]}


def payloads(count=3):
    return [{"index": index, "parent": os.getpid()}
            for index in range(count)]


class TestWorkerCrash:
    def test_dead_worker_degrades_to_serial(self):
        policy = BatchPolicy(retries=1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = run_tasks(crashing_worker, payloads(), pool, policy)
        assert [r["ok"] for r in results] == [0, 1, 2]
        assert policy.worker_failures > 0
        assert policy.serial_fallbacks == 3

    def test_counters_surface_in_metrics_block(self):
        policy = BatchPolicy(retries=0)
        with ProcessPoolExecutor(max_workers=2) as pool:
            run_tasks(crashing_worker, payloads(), pool, policy)
        block = policy.counters()
        assert block["worker_failures"] == policy.worker_failures
        assert block["serial_fallbacks"] == 3
        assert block["retry_budget"] == 0


class TestTransientFailure:
    def test_exceptions_are_retried_with_backoff(self):
        policy = BatchPolicy(retries=2)
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = run_tasks(flaky_worker, payloads(), pool, policy)
        assert [r["ok"] for r in results] == [0, 1, 2]
        assert policy.retried > 0           # extra waves were attempted
        assert policy.serial_fallbacks == 3  # and still needed the fallback


class TestTimeout:
    def test_hung_item_times_out_then_runs_inline(self):
        policy = BatchPolicy(timeout=0.3, retries=0)
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = run_tasks(hanging_worker, payloads(), pool, policy)
        assert [r["ok"] for r in results] == [0, 1, 2]
        assert policy.timeouts == 3
        assert policy.serial_fallbacks == 3


class TestHealthyPath:
    def test_no_pool_runs_serially(self):
        policy = BatchPolicy()
        results = run_tasks(flaky_worker, payloads(), None, policy)
        assert [r["ok"] for r in results] == [0, 1, 2]
        assert policy.worker_failures == 0

    def test_failed_items_still_land_in_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        items = payloads()
        keys = [cache.key("demo", index=p["index"]) for p in items]
        policy = BatchPolicy(retries=0)
        results = run_cached_tasks(
            flaky_worker, items, cache=cache, stage="demo", keys=keys,
            jobs=2, policy=policy,
        )
        assert [r["ok"] for r in results] == [0, 1, 2]
        assert policy.serial_fallbacks == 3
        assert cache.stores == 3  # fallback results are cached like any other
        warm = run_cached_tasks(
            flaky_worker, items, cache=cache, stage="demo", keys=keys,
            jobs=1, policy=BatchPolicy(),
        )
        assert all(r.get("cached") for r in warm)
        assert [r["ok"] for r in warm] == [0, 1, 2]
