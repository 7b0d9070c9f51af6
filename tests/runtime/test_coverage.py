"""Tests for interleaving-coverage tracking (repro.runtime.coverage)."""

from repro.detectors.seed import SeedJob, run_seed
from repro.runtime import RandomScheduler
from repro.runtime.coverage import CoverageMap, SeedCoverage, SwitchTracker
from tests.helpers import build_counter_race


class _FakeThread:
    def __init__(self, thread_id, name="t"):
        self.thread_id = thread_id
        self.name = name


class TestSwitchTracker:
    def test_delegates_without_perturbing_the_schedule(self):
        threads = [_FakeThread(i) for i in range(4)]
        plain = RandomScheduler(9)
        tracked = SwitchTracker(RandomScheduler(9))
        plain_seq = [plain.choose(threads, s).thread_id for s in range(60)]
        tracked_seq = [tracked.choose(threads, s).thread_id for s in range(60)]
        assert plain_seq == tracked_seq

    def test_records_only_actual_switches(self):
        threads = {tid: _FakeThread(tid) for tid in (1, 2)}

        class _Fixed:
            def __init__(self, ids):
                self.ids = list(ids)

            def choose(self, runnable, step):
                return threads[self.ids[step]]

            def on_thread_created(self, thread):
                pass

            def reset(self):
                pass

        tracker = SwitchTracker(_Fixed([1, 1, 2, 2, 1]))
        for step in range(5):
            tracker.choose(list(threads.values()), step)
        assert tracker.switch_points == [(2, 2), (4, 1)]

    def test_signature_deterministic_and_switch_sensitive(self):
        threads = [_FakeThread(i) for i in range(3)]

        def signature(seed):
            tracker = SwitchTracker(RandomScheduler(seed))
            for step in range(40):
                tracker.choose(threads, step)
            return tracker.signature()

        assert signature(1) == signature(1)
        assert signature(1) != signature(2)

    def test_reset_clears_history(self):
        threads = [_FakeThread(i) for i in range(3)]
        tracker = SwitchTracker(RandomScheduler(4))
        for step in range(20):
            tracker.choose(threads, step)
        first = tracker.signature()
        tracker.reset()
        assert tracker.switch_points == []
        for step in range(20):
            tracker.choose(threads, step)
        assert tracker.signature() == first  # same seed, same schedule


class TestSeedCoverage:
    def test_payload_round_trip(self):
        coverage = SeedCoverage(7, frozenset({(3, 9), (1, 2)}), "abcd", 5)
        payload = coverage.to_payload()
        assert payload["pairs"] == [[1, 2], [3, 9]]  # sorted, JSON-safe
        back = SeedCoverage.from_payload(payload)
        assert back.seed == 7
        assert back.pairs == coverage.pairs
        assert back.signature == "abcd"
        assert back.switches == 5

    def test_from_run_collects_report_pairs_and_schedule(self):
        module = build_counter_race(iterations=3)
        run = run_seed(SeedJob(seed=1, coverage=True), module=module)
        reports, coverage = run.reports, run.coverage
        assert coverage.seed == 1
        assert coverage.pairs == {report.static_key for report in reports}
        assert coverage.signature  # a real schedule always switched
        assert coverage.switches > 0

    def test_coverage_collection_does_not_change_reports(self):
        module = build_counter_race(iterations=3)
        plain = run_seed(SeedJob(seed=2), module=module).reports
        tracked = run_seed(SeedJob(seed=2, coverage=True), module=module).reports
        assert [r.uid for r in plain] == [r.uid for r in tracked]


class TestCoverageMap:
    def test_merge_counts_only_new_pairs(self):
        accumulated = CoverageMap()
        first = SeedCoverage(0, frozenset({(1, 2), (3, 4)}), "sig0")
        second = SeedCoverage(1, frozenset({(3, 4), (5, 6)}), "sig1")
        third = SeedCoverage(2, frozenset({(1, 2)}), "sig0")
        assert accumulated.merge(first) == 2
        assert accumulated.merge(second) == 1
        assert accumulated.merge(third) == 0
        assert accumulated.total_pairs == 3
        assert accumulated.distinct_schedules == 2  # sig0 seen twice
        assert accumulated.seeds_merged == [0, 1, 2]

    def test_merge_all_returns_per_seed_deltas_in_order(self):
        accumulated = CoverageMap()
        wave = [
            SeedCoverage(0, frozenset({(1, 2)}), "a"),
            SeedCoverage(1, frozenset({(1, 2), (3, 4)}), "b"),
        ]
        assert accumulated.merge_all(wave) == [1, 1]
        assert accumulated.merge_all(wave) == [0, 0]
