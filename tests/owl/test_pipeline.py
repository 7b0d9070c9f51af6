"""End-to-end tests for the OWL pipeline on the fast targets."""

import pytest

from repro.owl.pipeline import OwlPipeline


@pytest.fixture(scope="module")
def libsafe_result():
    from repro.apps.libsafe import libsafe_spec

    return OwlPipeline(libsafe_spec()).run()


@pytest.fixture(scope="module")
def ssdb_result():
    from repro.apps.ssdb import ssdb_spec

    return OwlPipeline(ssdb_spec()).run()


class TestLibsafePipeline:
    """Table 2/3 row Libsafe: 3 raw, 0 adhoc, 0 eliminated, 3 remaining,
    3 OWL reports, 1 attack."""

    def test_raw_reports(self, libsafe_result):
        assert libsafe_result.counters.raw_reports == 3

    def test_no_adhoc_syncs(self, libsafe_result):
        assert libsafe_result.counters.adhoc_syncs == 0

    def test_all_races_verified(self, libsafe_result):
        assert libsafe_result.counters.verifier_eliminated == 0
        assert libsafe_result.counters.remaining == 3

    def test_three_owl_reports(self, libsafe_result):
        assert libsafe_result.counters.vulnerability_reports == 3

    def test_attack_detected_and_realized(self, libsafe_result):
        detected = libsafe_result.detected_ground_truths()
        assert [t.attack_id for t in detected] == ["libsafe-2.0-16"]

    def test_attack_site_is_strcpy_line(self, libsafe_result):
        realized = libsafe_result.realized_attacks()
        sites = {(a.vulnerability.site.location.filename,
                  a.vulnerability.site.location.line) for a in realized}
        assert ("intercept.c", 165) in sites

    def test_unmatched_reports_not_realized(self, libsafe_result):
        unmatched = [a for a in libsafe_result.attacks if a.ground_truth is None]
        assert unmatched  # the two benign OWL reports
        assert all(not a.realized for a in unmatched)


class TestSsdbPipeline:
    """Table 3 row SSDB: 12 raw, 0 adhoc, 10 eliminated, 2 remaining."""

    def test_counters_match_paper(self, ssdb_result):
        counters = ssdb_result.counters
        assert counters.raw_reports == 12
        assert counters.adhoc_syncs == 0
        assert counters.verifier_eliminated == 10
        assert counters.remaining == 2

    def test_reduction_ratio(self, ssdb_result):
        assert ssdb_result.counters.reduction_ratio > 0.8

    def test_cve_detected(self, ssdb_result):
        detected = ssdb_result.detected_ground_truths()
        assert [t.attack_id for t in detected] == ["ssdb-cve-2016-1000324"]

    def test_vulnerability_site_is_line_347(self, ssdb_result):
        sites = {v.site.location.line for v in ssdb_result.vulnerabilities}
        assert sites == {347}

    def test_ctrl_dep_report_carries_branch_359(self, ssdb_result):
        from repro.owl.vuln_analysis import DependenceKind

        ctrl = [v for v in ssdb_result.vulnerabilities
                if v.kind is DependenceKind.CTRL_DEP]
        assert ctrl
        assert any(b.location.line == 359 for b in ctrl[0].branches)


class TestPipelineOptions:
    def test_counters_serializable(self, libsafe_result):
        data = libsafe_result.counters.as_dict()
        assert set(data) >= {
            "raw_reports", "adhoc_syncs", "remaining", "reduction_ratio",
        }
